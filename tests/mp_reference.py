"""A 40-digit reference for the Bures metric on the coset charts, in mpmath.

Every float route of the package is checked against another float route;
this one is checked against the truth to about 25 digits. For a chart given
as its float values (ordering metric.COORDS2 or COORDS3, read exactly):

  * Omega is the product of the paper's coset blocks, written out from the
    block formula itself and not from the package's scalar expansion, and
    rho = Omega D Omega†;
  * each tangent d_a rho is a central difference of step 1e-15, whose
    truncation error is about 1e-30 at 40 digits;
  * g_ab = (1/2) sum_ij Re[(d_a rho)_ij (d_b rho)_ji] / (lambda_i + lambda_j)
    in the eigenbasis from the context's ``eighe``.

Test-only: nothing under src/ imports it. It runs in a private mpmath
context, so the global ``mpmath.mp`` precision is left alone.
"""

import mpmath

MP = mpmath.MPContext()
MP.dps = 40
STEP = MP.mpf("1e-15")


def coset_block(b: list) -> mpmath.matrix:
    """The k x k coset block of SU(k)/U(k-1) for a complex (k-1)-vector B:

        [[cos sqrt(B B†), B sinc|B|], [-sinc|B| B†, cos|B|]],

    with cos sqrt(B B†) = I + (cos|B| - 1) B B† / |B|^2 and
    (cos x - 1)/x^2 = -sinc(x/2)^2 / 2, free of cancellation near 0."""
    k = len(b) + 1
    norm = MP.sqrt(MP.fsum(abs(x) ** 2 for x in b))
    cfac, sfac = -MP.sinc(norm / 2) ** 2 / 2, MP.sinc(norm)
    block = MP.eye(k)
    for i, bi in enumerate(b):
        for j, bj in enumerate(b):
            block[i, j] += cfac * bi * MP.conj(bj)
        block[i, k - 1] = sfac * bi
        block[k - 1, i] = -sfac * MP.conj(bi)
    block[k - 1, k - 1] = MP.cos(norm)
    return block


def rho(values) -> mpmath.matrix:
    """rho = Omega D Omega† at the chart ``values``: (theta, alpha, phi) at
    n = 2, (theta1, theta2, alpha, phi, beta1, beta2, psi1, psi2) at n = 3."""
    if len(values) == 3:
        theta, alpha, phi = values
        omega = coset_block([alpha * MP.expj(phi)])
        lam = [MP.cos(theta) ** 2, MP.sin(theta) ** 2]
    else:
        theta1, theta2, alpha, phi, beta1, beta2, psi1, psi2 = values
        lower = MP.eye(3)
        lower[:2, :2] = coset_block([alpha * MP.expj(phi)])
        omega = coset_block([beta1 * MP.expj(psi1), beta2 * MP.expj(psi2)]) * lower
        s1sq = MP.sin(theta1) ** 2
        lam = [MP.cos(theta1) ** 2, s1sq * MP.cos(theta2) ** 2, s1sq * MP.sin(theta2) ** 2]
    return omega * MP.diag(lam) * omega.H


def tangents(values) -> list:
    """d_a rho for each coordinate, by a central difference of step STEP."""
    point = [MP.mpf(x) for x in values]
    out = []
    for a in range(len(point)):
        up, dn = list(point), list(point)
        up[a] += STEP
        dn[a] -= STEP
        out.append((rho(up) - rho(dn)) / (2 * STEP))
    return out


def metric(values) -> list[list[float]]:
    """The Hubner tensor of the chart at ``values``, rounded to floats."""
    lam, vecs = MP.eighe(rho([MP.mpf(x) for x in values]))
    n = len(lam)
    proj = [vecs.H * t * vecs for t in tangents(values)]
    g = [[0.0] * len(proj) for _ in proj]
    for a, pa in enumerate(proj):
        for b in range(a, len(proj)):
            pb = proj[b]
            total = MP.fsum(MP.re(pa[i, j] * pb[j, i]) / (lam[i] + lam[j])
                            for i in range(n) for j in range(n))
            g[a][b] = g[b][a] = float(total / 2)
    return g
