"""Recover chart coordinates from a density matrix.

Both chart families take one path. ``_spectrum`` checks the state's size and
reads its descending spectrum. A per-n step reads the theta coordinates off
that spectrum (at n = 3 its one refusal is lambda2 > 3 lambda3, where theta2
falls below pi/6) and the coset coordinates off the eigenvectors in closed
form, with fixed conventions where a coordinate is undefined (the phase of
Omega's third column makes Omega_33 positive unless it is exactly 0, psi_k = 0
when the k-th entry of that column is exactly 0, phi = 0 when an entry of the
2x2 block is exactly 0). The coset coordinates are read on the Python scalars
of one ``v.tolist()``: at n = 3 the k = 3 block comes from coset's row formula
and only the top-left 2x2 block of (U3† V) is formed, which at this size costs
less than numpy's products. ``_fit`` builds that chart through the family table and
measures its residual || Omega(chart) D Omega† - rho ||_F; every in-chart
state ends there. The closed form is the only fit: a residual above
FAIL_RESIDUAL raises FitFailure, any other is returned alongside the chart.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import coset
from .coset import CosetChart2, CosetChart3, DensityMatrix, THETA2_MIN, require_gap
from .errors import FitFailure, OutOfChartRange
from .metric import family
from .tol import FAIL_RESIDUAL, RANGE_EPS


def _spectrum(rho, n: int):
    """(state, eigenvalues as floats, eigenvector columns), both descending, of
    an n x n state; OutOfChartRange for another size, DegenerateSpectrum for a
    gap below GAP, where the chart coordinates are unidentifiable."""
    dm = coset.as_density(rho)
    if dm.dim != n:
        raise OutOfChartRange("n", dm.dim, f"find_chart{n} needs a {n}x{n} state")
    spec = dm.spectral
    w = spec.eigenvalues[::-1].tolist()
    require_gap(w)
    return dm, w, spec.eigenvectors[:, ::-1]


def _fit(fam, dm: DensityMatrix, thetas: tuple, seed: tuple):
    """(chart, residual) at ``thetas`` with the analytic coset values ``seed``;
    FitFailure above FAIL_RESIDUAL."""
    chart = fam.chart(*thetas, *seed)
    res = float(np.linalg.norm(fam.rho(chart).mat - dm.mat))
    if res > FAIL_RESIDUAL:
        raise FitFailure(f"residual {res:.3e} > {FAIL_RESIDUAL:.1e}")
    return chart, res


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on the first call. Nothing in
    the package calls it; the benchmark binds it by name and counts its calls."""
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)


def _acos_root(lam: float) -> float:
    """acos(sqrt(lambda)), with lambda clamped into [0, 1]: theta from cos^2 theta."""
    return math.acos(min(math.sqrt(max(lam, 0.0)), 1.0))


def _block_angles(m00: complex, m01: complex, m10: complex, m11: complex) -> tuple[float, float]:
    """(alpha, phi) of an SU(2) block [[m00, m01], [m10, m11]] whose first
    column carries (cos a, -e^{-i phi} sin a) up to a phase; phi is undefined
    when m01 or m11 is exactly 0, and any other size fixes it. Both families
    pass their four Python scalars: n = 2 the eigenvectors, n = 3 the
    top-left block of (U3† V)."""
    alpha = math.atan2(abs(m10), abs(m00))
    return alpha, (cmath.phase(m01) - cmath.phase(m11) if m01 and m11 else 0.0)


def find_chart2(rho) -> tuple[CosetChart2, float]:
    """Chart coordinates of a nondegenerate 2-level state, with fit residual:
    theta from the larger eigenvalue, (alpha, phi) from the eigenvectors."""
    dm, w, v = _spectrum(rho, 2)
    (m00, m01), (m10, m11) = v.tolist()
    return _fit(family(2), dm, (_acos_root(w[0]),), _block_angles(m00, m01, m10, m11))


def _theta3_from_spectrum(w_triple) -> tuple[float, float]:
    l1, l2, l3 = w_triple
    theta1 = _acos_root(l1)
    theta2 = math.atan2(math.sqrt(max(l3, 0.0)), math.sqrt(max(l2, 0.0)))
    return theta1, theta2


def _coset_params_from_eigvecs(v: np.ndarray):
    """Analytic coset parameters from an eigenvector matrix (column phases free),
    on the Python scalars of one ``v.tolist()``."""
    (v00, v01, c1), (v10, v11, c2), (v20, v21, c3) = v.tolist()
    # third column of Omega is (n1 e^{i psi1} sin b, n2 e^{i psi2} sin b, cos b)
    if c3:
        turn = cmath.exp(-1j * cmath.phase(c3))
        c1, c2, c3 = c1 * turn, c2 * turn, c3 * turn
    # sin(beta) from the small entries and atan2 keep beta exact near 0,
    # where acos(cos(beta)) rounds every beta below ~1.5e-8 to 0
    sb = math.hypot(abs(c1), abs(c2))
    beta = math.atan2(sb, c3.real)
    scale = beta / sb if sb else 0.0
    b1, b2 = scale * abs(c1), scale * abs(c2)
    psi1 = cmath.phase(c1) if c1 else 0.0
    psi2 = cmath.phase(c2) if c2 else 0.0
    # the k=3 block U3 alone: Omega with alpha = phi = 0. The top-left 2x2
    # block of U3† V should be Omega2 times a diagonal phase; only it is formed
    (u00, u01, _), (u10, u11, _), (u20, u21, _) = coset._omega3_rows(
        0.0, 0.0, b1, b2, psi1, psi2)
    u00, u10, u20 = u00.conjugate(), u10.conjugate(), u20.conjugate()
    u01, u11, u21 = u01.conjugate(), u11.conjugate(), u21.conjugate()
    alpha, phi = _block_angles(u00 * v00 + u10 * v10 + u20 * v20,
                               u00 * v01 + u10 * v11 + u20 * v21,
                               u01 * v00 + u11 * v10 + u21 * v20,
                               u01 * v01 + u11 * v11 + u21 * v21)
    return alpha, phi, b1, b2, psi1, psi2


def find_chart3(rho) -> tuple[CosetChart3, float]:
    """Chart coordinates of a nondegenerate 3-level state, with fit residual:
    theta1, theta2 from the descending eigenvalues, the six coset coordinates
    from the eigenvectors.

    The theta box needs lambda1 >= 1/3, always true, and lambda3 <= lambda2 <= 3 lambda3,
    so the one refusal is lambda2 > 3 lambda3 (theta2 < pi/6 - RANGE_EPS). No other
    ordering (a, b, c) fits: it needs c <= b <= 3c. For {b, c} = {lambda2, lambda3} or
    {lambda1, lambda3}, c = lambda3 and lambda2 <= b <= 3 lambda3; for {lambda1, lambda2},
    a = lambda3 >= 1/3 makes all three 1/3, a spectrum ``require_gap`` refuses.
    """
    dm, w, v = _spectrum(rho, 3)
    theta1, theta2 = _theta3_from_spectrum(w)
    if theta2 < THETA2_MIN - RANGE_EPS:
        raise OutOfChartRange("spectrum", tuple(w), "no eigenvalue ordering fits the chart box "
                              "(needs lambda1 >= 1/3 and lambda2/lambda3 in [1, 3])")
    return _fit(family(3), dm, (theta1, theta2), _coset_params_from_eigvecs(v))


def find_chart(rho):
    """(chart, residual) from the inverse of the state's chart family."""
    dm = coset.as_density(rho)
    return family(dm.dim).find(dm)
