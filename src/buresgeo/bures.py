"""Fidelity, Bures distance, and the Bures line element.

Three independent routes to the squared line element ds^2 at a state rho
with tangent drho:

  * hubner_form     -- spectral sum over eigenpairs of rho (the oracle),
  * dittmann2_form  -- diagonalization-free trace expression, valid for
                       nonsingular 2x2 states,
  * dittmann3_form  -- same idea for nonsingular, non-pure 3x3 states.

All three agree to ~1e-14 relative on their common domain; the package's
validation machinery re-checks that agreement on every run.
"""

from __future__ import annotations

import math

import numpy as np

from . import matcore
from .coset import DensityMatrix, as_density
from .errors import (
    DegenerateSupport,
    DimensionMismatch,
    InvalidTangent,
    PureState,
    SingularState,
    VerificationFailure,
)

EPS_SPEC = 1e-12          # lambda_i + lambda_j at or below this counts as zero
SUPPORT_LEAK_TOL = 1e-8   # matrix-element size that makes a zero-sum term divergent
TANGENT_TOL = 1e-10


def check_tangent(drho, tol: float = TANGENT_TOL) -> np.ndarray:
    """Validate a tangent: Hermitian and traceless to ``tol``. Returns the array."""
    d = matcore.as_matrix(drho)
    defect = matcore.hermiticity_defect(d)
    if defect > tol:
        raise InvalidTangent(f"tangent not Hermitian: defect {defect:.3e} > {tol:.1e}")
    tr = abs(matcore.trace(d))
    if tr > tol:
        raise InvalidTangent(f"tangent not traceless: |trace| {tr:.3e} > {tol:.1e}")
    return d


def fidelity(rho1, rho2) -> float:
    """Uhlmann fidelity F = [Tr sqrt(sqrt(rho1) rho2 sqrt(rho1))]^2.

    Computed with two PSD square roots so the same code path serves every
    dimension. The raw value is required to lie in [-1e-10, 1 + 1e-9] and is
    then clamped to [0, 1].
    """
    r1, r2 = as_density(rho1), as_density(rho2)
    if r1.dim != r2.dim:
        raise DimensionMismatch(f"dimensions differ: {r1.dim} vs {r2.dim}")
    s = matcore.mat_sqrt_psd(r1.mat)
    inner = matcore.hermitize(s @ r2.mat @ s)
    root = matcore.mat_sqrt_psd(inner)
    f = float(np.trace(root).real) ** 2
    if not (-1e-10 <= f <= 1.0 + 1e-9):  # pragma: no cover - unreachable for valid states
        raise VerificationFailure(f"raw fidelity {f!r} outside [-1e-10, 1+1e-9]")
    return min(max(f, 0.0), 1.0)


def bures_distance(rho1, rho2) -> float:
    """d_B = sqrt(2 - 2 sqrt(F)); zero iff the states coincide (F = 1)."""
    f = fidelity(rho1, rho2)
    return math.sqrt(max(2.0 - 2.0 * math.sqrt(f), 0.0))


def hubner_form(rho, d1, d2, eps_spec: float = EPS_SPEC) -> float:
    """Polarized spectral form of the squared Bures line element:

        g(d1, d2) = (1/2) sum_{ij} Re[<i|d1|j><j|d2|i>] / (lambda_i + lambda_j)

    summing only over pairs with lambda_i + lambda_j > eps_spec. If a dropped
    pair carries a non-negligible matrix element, the tangent leaves the
    support of rho and the metric diverges there: DegenerateSupport.
    """
    dm = rho if isinstance(rho, DensityMatrix) else as_density(rho)
    spec = dm.spectral
    if dm.mat.shape != np.shape(d1) or dm.mat.shape != np.shape(d2):
        raise DimensionMismatch("tangents must match the state's dimension")
    v = spec.eigenvectors
    vh = v.conj().T
    # the products stay in numpy; the n^2 pair loop runs on Python scalars,
    # which at n <= 3 costs less than indexing numpy arrays
    x1 = (vh @ np.asarray(d1, dtype=np.complex128) @ v).tolist()
    x2 = x1 if d2 is d1 else (vh @ np.asarray(d2, dtype=np.complex128) @ v).tolist()
    w = spec.eigenvalues.tolist()
    total = 0.0
    for i, (wi, x1i) in enumerate(zip(w, x1)):
        for j, wj in enumerate(w):
            s = wi + wj
            term = x1i[j] * x2[j][i]
            if s > eps_spec:
                total += term.real / s
            elif abs(term) > SUPPORT_LEAK_TOL ** 2:
                raise DegenerateSupport(
                    f"eigenpair ({i},{j}) has lambda_i+lambda_j={s:.3e} but the "
                    f"tangents couple to it (|term|={abs(term):.3e})"
                )
    return 0.5 * total


def dittmann2_form(rho, drho) -> float:
    """Trace form of ds^2 for a nonsingular 2x2 state:

        (1/4) Tr[ drho drho + (1/|rho|)(drho - rho drho)(drho - rho drho) ]
    """
    dm = rho if isinstance(rho, DensityMatrix) else as_density(rho)
    if dm.dim != 2:
        raise DimensionMismatch(f"dittmann2_form needs a 2x2 state, got n={dm.dim}")
    d = np.asarray(drho, dtype=np.complex128)
    detr = matcore.det(dm.mat).real
    if detr <= 1e-10:
        raise SingularState(f"|rho| = {detr:.3e} <= 1e-10")
    q = d - dm.mat @ d
    val = np.trace(d @ d + (q @ q) / detr).real
    return 0.25 * float(val)


def dittmann3_form(rho, drho) -> float:
    """Trace form of ds^2 for a nonsingular, non-pure 3x3 state:

        (1/4) Tr[ drho drho + 3/(1 - Tr rho^3) ( (drho - rho drho)^2
                  + |rho| (drho - rho^{-1} drho)^2 ) ]
    """
    dm = rho if isinstance(rho, DensityMatrix) else as_density(rho)
    if dm.dim != 3:
        raise DimensionMismatch(f"dittmann3_form needs a 3x3 state, got n={dm.dim}")
    d = np.asarray(drho, dtype=np.complex128)
    rho_inv, detr, coef = _dittmann3_invariants(dm)
    q1 = d - dm.mat @ d
    q2 = d - rho_inv @ d
    val = np.trace(d @ d + coef * (q1 @ q1 + detr * (q2 @ q2))).real
    return 0.25 * float(val)


def _dittmann3_invariants(dm: DensityMatrix) -> tuple[np.ndarray, float, float]:
    """(rho^{-1}, |rho|, 3/(1 - Tr rho^3)) of a 3x3 state, computed once
    per DensityMatrix and cached on it; a state that fails a check caches
    nothing, so it raises again on every call. No eigendecomposition is used,
    which keeps this route independent of the spectral one."""
    inv = dm._dittmann3
    if inv is None:
        m = dm.mat
        tr3 = np.trace(m @ m @ m).real
        if tr3 >= 1.0 - 1e-12:
            # checked before the determinant: a nearly pure state is also
            # nearly singular, and purity is the sharper diagnosis
            raise PureState(f"Tr rho^3 = {tr3!r} is within 1e-12 of 1")
        detr = matcore.det(m).real
        if detr <= 1e-12:
            raise SingularState(f"|rho| = {detr:.3e} <= 1e-12")
        inv = dm._dittmann3 = (np.linalg.inv(m), detr, 3.0 / (1.0 - tr3))
    return inv
