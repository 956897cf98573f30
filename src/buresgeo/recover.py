"""Recover chart coordinates from a density matrix.

Eigenvalues fix the theta coordinates directly (after choosing the
permutation that lands in the chart's eigenvalue box); the coset
coordinates are read off the eigenvectors in closed form, with fixed
conventions where a coordinate is undefined (psi_k = 0 when the k-th entry
of Omega's third column is exactly 0, phi = 0 when an entry of the 2x2
block is exactly 0). That analytic inverse is the path every in-chart state
takes. Only if its residual || Omega(chart) D Omega† - rho ||_F exceeds
TARGET_RESIDUAL does a least-squares multistart polish it; scipy is imported
on that fallback's first call, never at module load. The reached residual
is always returned alongside the chart.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from . import coset
from .coset import (CosetChart2, CosetChart3, DensityMatrix, THETA1_MAX, THETA2_MAX, THETA2_MIN,
                    require_gap)
from .errors import FitFailure, OutOfChartRange
from .metric import family
from .tol import BETA_CLIP, FAIL_RESIDUAL, FIT_STOP, PHASE_REF, RANGE_EPS, TARGET_RESIDUAL

MULTISTART = 8


def _spectral_sorted_desc(rho: DensityMatrix):
    spec = rho.spectral
    order = np.argsort(spec.eigenvalues)[::-1]
    w = spec.eigenvalues[order]
    v = spec.eigenvectors[:, order]
    # a degenerate spectrum leaves the chart coordinates unidentifiable
    require_gap(w.tolist())
    return w, v


def _residual(rho_mat: np.ndarray, built: DensityMatrix) -> float:
    return float(np.linalg.norm(built.mat - rho_mat))


def find_chart2(rho) -> tuple[CosetChart2, float]:
    """Chart coordinates of a nondegenerate 2-level state, with fit residual."""
    dm = coset.as_density(rho)
    if dm.dim != 2:
        raise OutOfChartRange("n", dm.dim, "find_chart2 needs a 2x2 state")
    w, v = _spectral_sorted_desc(dm)
    theta, seed = _acos_root(w[0]), _block_angles(v)
    chart = CosetChart2(theta, *seed)
    res = _residual(dm.mat, coset.rho2(chart))
    if res > TARGET_RESIDUAL:
        chart, res = _polish2(dm, theta, seed, res)
    if res > FAIL_RESIDUAL:
        raise FitFailure(f"residual {res:.3e} > {FAIL_RESIDUAL:.1e} after multistart")
    return chart, res


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on the first call.

    Only the fallback fits need scipy, so importing buresgeo does not load it.
    """
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)


def _polish2(dm: DensityMatrix, theta: float, seed_params, seed_res: float):
    def objective(p):
        built = coset.rho2(CosetChart2(theta, p[0], p[1]))
        diff = built.mat - dm.mat
        return np.concatenate([diff.real.ravel(), diff.imag.ravel()])

    best_chart = CosetChart2(theta, *seed_params)
    best_res = seed_res
    rng = np.random.default_rng(20)
    starts = [np.asarray(seed_params, dtype=float)]
    starts += [rng.uniform(0, 2 * math.pi, size=2) for _ in range(MULTISTART)]
    for p0 in starts:
        sol = least_squares(objective, p0, method="lm", xtol=FIT_STOP, ftol=FIT_STOP)
        chart = CosetChart2(theta, *sol.x)
        res = _residual(dm.mat, coset.rho2(chart))
        if res < best_res:
            best_chart, best_res = chart, res
        if best_res <= TARGET_RESIDUAL:
            break
    return best_chart, best_res


def _acos_root(lam: float) -> float:
    """acos(sqrt(lambda)), with lambda clamped into [0, 1]: theta from cos^2 theta."""
    return math.acos(min(math.sqrt(max(lam, 0.0)), 1.0))


def _block_angles(m: np.ndarray) -> tuple[float, float]:
    """(alpha, phi) of the SU(2) block in the top-left 2x2 of ``m``, whose
    first column carries (cos a, -e^{-i phi} sin a) up to a phase; phi is
    undefined when an entry is exactly 0, and any other size fixes it."""
    alpha = math.atan2(abs(m[1, 0]), abs(m[0, 0]))
    a, b = m[0, 1], m[1, 1]
    return alpha, (cmath.phase(a) - cmath.phase(b) if a and b else 0.0)


def _theta3_from_spectrum(w_triple) -> tuple[float, float]:
    l1, l2, l3 = w_triple
    theta1 = _acos_root(l1)
    theta2 = math.atan2(math.sqrt(max(l3, 0.0)), math.sqrt(max(l2, 0.0)))
    return theta1, theta2


def _assign_permutation3(w_desc: np.ndarray):
    """Pick the eigenvalue ordering that satisfies the chart's theta box.

    Tries the permutations of the (descending) spectrum in a fixed order and
    returns the first whose recovered (theta1, theta2) lie in range, with the
    chart's own RANGE_EPS slack (CosetChart3 clamps them into the box). Some
    perfectly valid spectra admit none (the box covers only part of the
    eigenvalue simplex sector); those raise OutOfChartRange.
    """
    for perm in itertools.permutations(range(3)):
        trip = tuple(float(w_desc[p]) for p in perm)
        t1, t2 = _theta3_from_spectrum(trip)
        # acos and atan2 of non-negative arguments never fall below 0
        if t1 <= THETA1_MAX + RANGE_EPS and THETA2_MIN - RANGE_EPS <= t2 <= THETA2_MAX + RANGE_EPS:
            return perm, t1, t2
    raise OutOfChartRange(
        "spectrum", tuple(float(x) for x in w_desc),
        "no eigenvalue ordering fits the chart box "
        "(needs lambda1 >= 1/3 and lambda2/lambda3 in [1, 3])"
    )


def _coset_params_from_eigvecs(v: np.ndarray):
    """Analytic coset parameters from an eigenvector matrix (column phases free)."""
    # third column of Omega is (n1 e^{i psi1} sin b, n2 e^{i psi2} sin b, cos b)
    col3 = v[:, 2].copy()
    if abs(col3[2]) > PHASE_REF:
        col3 = col3 * np.exp(-1j * np.angle(col3[2]))
    c1, c2, c3 = col3.tolist()
    # sin(beta) from the small entries and atan2 keep beta exact near 0,
    # where acos(cos(beta)) rounds every beta below ~1.5e-8 to 0
    sb = math.hypot(abs(c1), abs(c2))
    beta = math.atan2(sb, c3.real)
    scale = beta / sb if sb else 0.0
    b1, b2 = scale * abs(c1), scale * abs(c2)
    psi1 = cmath.phase(c1) if c1 else 0.0
    psi2 = cmath.phase(c2) if c2 else 0.0
    upper = coset.omega3_upper(b1, b2, psi1, psi2)
    # upper† v should be Omega2 times a diagonal phase
    return (*_block_angles(upper.conj().T @ v), b1, b2, psi1, psi2)


def find_chart3(rho) -> tuple[CosetChart3, float]:
    """Chart coordinates of a nondegenerate 3-level state, with fit residual.

    theta1, theta2 come from the eigenvalues; the six coset coordinates from
    the eigenvectors in closed form, with the least-squares multistart only
    as a fallback.
    """
    dm = coset.as_density(rho)
    if dm.dim != 3:
        raise OutOfChartRange("n", dm.dim, "find_chart3 needs a 3x3 state")
    w_desc, v_desc = _spectral_sorted_desc(dm)
    perm, theta1, theta2 = _assign_permutation3(w_desc)
    v = v_desc[:, list(perm)]
    seed = _coset_params_from_eigvecs(v)
    chart = CosetChart3(theta1, theta2, *seed)
    res = _residual(dm.mat, coset.rho3(chart))
    if res > TARGET_RESIDUAL:
        chart, res = _polish3(dm, theta1, theta2, seed, res)
    if res > FAIL_RESIDUAL:
        raise FitFailure(f"residual {res:.3e} > {FAIL_RESIDUAL:.1e} after multistart")
    return chart, res


def _clip_beta(p):
    """Map an unconstrained 6-vector into a valid coset parameter tuple."""
    alpha, phi, b1, b2, psi1, psi2 = (float(x) for x in p)
    beta = math.hypot(b1, b2)
    if beta >= coset.BETA_MAX:
        scalefac = (coset.BETA_MAX - BETA_CLIP) / beta
        b1, b2 = b1 * scalefac, b2 * scalefac
    return alpha, phi, b1, b2, psi1, psi2


def _polish3(dm: DensityMatrix, theta1: float, theta2: float, seed, seed_res: float):
    def objective(p):
        built = coset.rho3(CosetChart3(theta1, theta2, *_clip_beta(p)))
        diff = built.mat - dm.mat
        return np.concatenate([diff.real.ravel(), diff.imag.ravel()])

    best_chart = CosetChart3(theta1, theta2, *seed)
    best_res = seed_res
    rng = np.random.default_rng(21)
    starts = [np.asarray(seed, dtype=float)]
    for _ in range(MULTISTART):
        beta = rng.uniform(0.0, 0.95 * math.pi)
        chi = rng.uniform(0.0, 2 * math.pi)
        starts.append(np.array([
            rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi),
            beta * math.cos(chi), beta * math.sin(chi),
            rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)]))
    for p0 in starts:
        sol = least_squares(objective, p0, method="lm", xtol=FIT_STOP, ftol=FIT_STOP)
        chart = CosetChart3(theta1, theta2, *_clip_beta(sol.x))
        res = _residual(dm.mat, coset.rho3(chart))
        if res < best_res:
            best_chart, best_res = chart, res
        if best_res <= TARGET_RESIDUAL:
            break
    return best_chart, best_res


def find_chart(rho):
    """(chart, residual) from the inverse of the state's chart family."""
    dm = coset.as_density(rho)
    return family(dm.dim).find(dm)
