"""Fidelity, Bures distance, and the Bures line element.

Three independent routes to the squared line element ds^2 at a state rho
with tangent drho:

  * hubner_form     -- spectral sum over eigenpairs of rho (the oracle),
  * dittmann2_form  -- diagonalization-free trace expression, valid for
                       nonsingular 2x2 states,
  * dittmann3_form  -- same idea for nonsingular, non-pure 3x3 states.

All three agree to ~1e-14 relative on well-conditioned states; the trace
forms lose up to about 2.2e-16/lambda_min relative (~1e-8 just above
tol.DET_FLOOR, below which they refuse). `metric.validate` re-checks them.
"""

from __future__ import annotations

import math

import numpy as np

from . import matcore
from .coset import DensityMatrix, as_density
from .errors import (
    DegenerateSupport,
    DimensionMismatch,
    PureState,
    SingularState,
)
from .tol import DET_FLOOR, PURE, SUPPORT_LEAK


def fidelity(rho1, rho2) -> float:
    """Uhlmann fidelity F = ||sqrt(rho1) sqrt(rho2)||_1^2 (Jozsa 1994).

    Each state's cached spectrum V diag(lambda) V† keeps the factor
    H = V sqrt(lambda) (SpectralDecomposition.root), with eigenvalues in
    [-INVARIANT, 0) counted as 0, so sqrt(rho) = H V†; a state passed to
    several fidelities, as bures_distance after fidelity, forms it once.
    The trace norm is unitarily invariant: sqrt(F) is the sum of the
    singular values of H1† H2. So F >= 0, and by Holder's inequality F is
    at most the product of the eigenvalue sums of H1† H1 and H2† H2, each
    at most 1 + n INVARIANT for an accepted state: F is clamped to at most 1.
    """
    r1, r2 = as_density(rho1), as_density(rho2)
    if r1.dim != r2.dim:
        raise DimensionMismatch(f"dimensions differ: {r1.dim} vs {r2.dim}")
    h1, h2 = r1.spectral.root, r2.spectral.root
    return min(float(matcore.singular_values(h1.conj().T @ h2).sum()) ** 2, 1.0)


def bures_distance(rho1, rho2) -> float:
    """d_B = sqrt(2 - 2 sqrt(F)), to about 1e-8 absolute: a state and its copy may
    read up to 6e-8, nearby states lose every digit (ROADMAP.md, Bures-distance item)."""
    return distance_from_fidelity(fidelity(rho1, rho2))


def distance_from_fidelity(f: float) -> float:
    """The Bures distance sqrt(2 - 2 sqrt(F)) of a pair with fidelity ``f``."""
    return math.sqrt(max(2.0 - 2.0 * math.sqrt(f), 0.0))


def hubner_form(rho, d1, d2) -> float:
    """Polarized spectral form of the squared Bures line element:

        g(d1, d2) = (1/2) sum_{ij} Re[<i|d1|j><j|d2|i>] / (lambda_i + lambda_j)

    summing only over pairs with lambda_i + lambda_j > EPS_SPEC. If a dropped
    pair carries a non-negligible matrix element, the tangent leaves the
    support of rho and the metric diverges there: DegenerateSupport, naming
    the first such pair i-major. The spectrum's cached (kept, dropped) pair
    tables (SpectralDecomposition.pairs) are formed once per state: the kept
    pairs are summed i-major without a branch, then the dropped ones are
    checked. Each tangent is projected into the eigenbasis by
    SpectralDecomposition.project: a tangent handed over by the pullback or
    by metric.validate (SpectralDecomposition._hand) is projected once per
    state however many calls it enters, anything else on every call. Each
    tangent is checked (matcore.as_tangent) before its projection:
    DimensionMismatch unless it has the state's shape, InvalidTangent if it
    has a NaN or infinite entry.
    """
    spec = as_density(rho).spectral
    # the products stay in numpy; the n^2 pair loop runs on Python scalars,
    # which at n <= 3 costs less than indexing numpy arrays
    x1 = spec.project(d1)
    x2 = x1 if d2 is d1 else spec.project(d2)
    kept, dropped = spec.pairs
    total = 0.0
    for i, j, s in kept:
        total += (x1[i][j] * x2[j][i]).real / s
    for i, j, s in dropped:
        term = x1[i][j] * x2[j][i]
        if abs(term) > SUPPORT_LEAK ** 2:
            raise DegenerateSupport(
                f"eigenpair ({i},{j}) has lambda_i+lambda_j={s:.3e} but the "
                f"tangents couple to it (|term|={abs(term):.3e})"
            )
    return 0.5 * total


def dittmann2_form(rho, drho) -> float:
    """Trace form of ds^2 for a nonsingular 2x2 state:

        (1/4) Tr[ drho drho + (1/|rho|)(drho - rho drho)(drho - rho drho) ]

    DimensionMismatch unless drho is 2x2, InvalidTangent if it has a NaN or
    infinite entry (matcore.as_tangent).
    """
    dm = as_density(rho)
    if dm.dim != 2:
        raise DimensionMismatch(f"dittmann2_form needs a 2x2 state, got n={dm.dim}")
    d = matcore.as_tangent(drho, 2)
    detr = matcore.det(dm.mat).real
    if detr <= DET_FLOOR:
        raise SingularState(f"|rho| = {detr:.3e} <= {DET_FLOOR:.1e}")
    q = d - dm.mat @ d
    val = np.trace(d @ d + (q @ q) / detr).real
    return 0.25 * float(val)


def dittmann3_form(rho, drho) -> float:
    """Trace form of ds^2 for a nonsingular, non-pure 3x3 state:

        (1/4) Tr[ drho drho + 3/(1 - Tr rho^3) ( (drho - rho drho)^2
                  + |rho| (drho - rho^{-1} drho)^2 ) ]

    DimensionMismatch unless drho is 3x3, InvalidTangent if it has a NaN or
    infinite entry (matcore.as_tangent).
    """
    dm = as_density(rho)
    if dm.dim != 3:
        raise DimensionMismatch(f"dittmann3_form needs a 3x3 state, got n={dm.dim}")
    d = matcore.as_tangent(drho, 3).tolist()
    rows, inv_rows, detr, coef = _dittmann3_invariants(dm)
    # on Python scalars, which at n = 3 costs less than numpy; of each square
    # only the trace is formed
    a = _minus_left_product(d, rows)      # D - rho D
    b = _minus_left_product(d, inv_rows)  # D - rho^{-1} D
    return 0.25 * (_trace_square(d) + coef * (_trace_square(a) + detr * _trace_square(b)))


def _minus_left_product(d: list, m: list) -> tuple:
    """The rows of D - M D, 3x3 matrices given as rows; each entry of M D
    summed in index order."""
    (d00, d01, d02), (d10, d11, d12), (d20, d21, d22) = d
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    return ((d00 - (m00 * d00 + m01 * d10 + m02 * d20),
             d01 - (m00 * d01 + m01 * d11 + m02 * d21),
             d02 - (m00 * d02 + m01 * d12 + m02 * d22)),
            (d10 - (m10 * d00 + m11 * d10 + m12 * d20),
             d11 - (m10 * d01 + m11 * d11 + m12 * d21),
             d12 - (m10 * d02 + m11 * d12 + m12 * d22)),
            (d20 - (m20 * d00 + m21 * d10 + m22 * d20),
             d21 - (m20 * d01 + m21 * d11 + m22 * d21),
             d22 - (m20 * d02 + m21 * d12 + m22 * d22)))


def _trace_square(x) -> float:
    """Re Tr(X X) = Re sum_ij X_ij X_ji of a 3x3 matrix given as rows, i-major."""
    (x00, x01, x02), (x10, x11, x12), (x20, x21, x22) = x
    return (x00 * x00 + x01 * x10 + x02 * x20 + x10 * x01 + x11 * x11 + x12 * x21
            + x20 * x02 + x21 * x12 + x22 * x22).real


def _dittmann3_invariants(dm: DensityMatrix) -> tuple[list, list, float, float]:
    """(rows of rho, rows of rho^{-1}, |rho|, 3/(1 - Tr rho^3)) of a 3x3
    state, computed once per DensityMatrix and cached on it; a state that
    fails a check caches nothing, so it raises again on every call. No
    eigendecomposition is used, which keeps this route independent of the
    spectral one. The state is singular when e3/e2 = 2|rho|/(1 - Tr rho^2)
    <= DET_FLOOR: that ratio lies in [lambda_min/3, lambda_min], and |rho|
    does not once two eigenvalues are small."""
    inv = dm._dittmann3
    if inv is None:
        m = dm.mat
        m2 = m @ m
        tr3 = np.trace(m2 @ m).real
        if tr3 >= 1.0 - PURE:
            # checked before the determinant: a nearly pure state is also
            # nearly singular, and purity is the sharper diagnosis
            raise PureState(f"Tr rho^3 = {tr3!r} is within {PURE:.0e} of 1")
        detr = matcore.det(m).real
        two_e2 = 1.0 - np.trace(m2).real
        # multiplied out: e2 = 0 divides nothing
        if 2.0 * detr <= DET_FLOOR * two_e2:
            raise SingularState(f"e3/e2 = 2|rho|/(1 - Tr rho^2) = 2 * {detr:.3e} / {two_e2:.3e} "
                                f"<= {DET_FLOOR:.1e}")
        inv = dm._dittmann3 = (m.tolist(), matcore.inv(m).tolist(), float(detr),
                               float(3.0 / (1.0 - tr3)))
    return inv
