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
    VerificationFailure,
)
from .tol import DET_FLOOR, EPS_SPEC, FIDELITY_ABOVE, FIDELITY_BELOW, PURE, SUPPORT_LEAK


def fidelity(rho1, rho2) -> float:
    """Uhlmann fidelity F = ||sqrt(rho1) sqrt(rho2)||_1^2 (Jozsa 1994).

    Each state's cached spectrum V diag(lambda) V† gives H = V sqrt(lambda),
    with eigenvalues in [-INVARIANT, 0) counted as 0, so sqrt(rho) = H V†.
    The trace norm is unitarily invariant: sqrt(F) is the sum of the
    singular values of H1† H2. The raw value is required to lie in
    [-FIDELITY_BELOW, 1 + FIDELITY_ABOVE] and is then clamped to [0, 1].
    """
    r1, r2 = as_density(rho1), as_density(rho2)
    if r1.dim != r2.dim:
        raise DimensionMismatch(f"dimensions differ: {r1.dim} vs {r2.dim}")
    h1, h2 = (s.eigenvectors * np.sqrt(np.maximum(s.eigenvalues, 0.0))
              for s in (r1.spectral, r2.spectral))
    f = float(matcore.singular_values(h1.conj().T @ h2).sum()) ** 2
    if not (-FIDELITY_BELOW <= f <= 1.0 + FIDELITY_ABOVE):  # pragma: no cover - unreachable
        raise VerificationFailure(f"raw fidelity {f!r} outside "
                                  f"[-{FIDELITY_BELOW:.0e}, 1+{FIDELITY_ABOVE:.0e}]")
    return min(max(f, 0.0), 1.0)


def bures_distance(rho1, rho2) -> float:
    """d_B = sqrt(2 - 2 sqrt(F)); zero iff the states coincide (F = 1)."""
    return distance_from_fidelity(fidelity(rho1, rho2))


def distance_from_fidelity(f: float) -> float:
    """The Bures distance sqrt(2 - 2 sqrt(F)) of a pair with fidelity ``f``."""
    return math.sqrt(max(2.0 - 2.0 * math.sqrt(f), 0.0))


def hubner_form(rho, d1, d2) -> float:
    """Polarized spectral form of the squared Bures line element:

        g(d1, d2) = (1/2) sum_{ij} Re[<i|d1|j><j|d2|i>] / (lambda_i + lambda_j)

    summing only over pairs with lambda_i + lambda_j > EPS_SPEC. If a dropped
    pair carries a non-negligible matrix element, the tangent leaves the
    support of rho and the metric diverges there: DegenerateSupport. The sum
    runs i-major over the spectrum's cached (i, j, lambda_i + lambda_j)
    table (SpectralDecomposition.pairs), so each state forms its n^2
    denominators once. Each tangent is projected into the eigenbasis by
    SpectralDecomposition.memo_project: a read-only array that owns its data
    (the pullback's tangents) is projected once per state however many pairs
    it enters, anything else on every call. Each tangent is checked
    (matcore.as_tangent) before its projection: DimensionMismatch unless it
    has the state's shape, InvalidTangent if it has a NaN or infinite entry.
    """
    spec = as_density(rho).spectral
    # the products stay in numpy; the n^2 pair loop runs on Python scalars,
    # which at n <= 3 costs less than indexing numpy arrays
    x1 = spec.memo_project(d1)
    x2 = x1 if d2 is d1 else spec.memo_project(d2)
    total = 0.0
    for i, j, s in spec.pairs:
        term = x1[i][j] * x2[j][i]
        if s > EPS_SPEC:
            total += term.real / s
        elif abs(term) > SUPPORT_LEAK ** 2:
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
    d = matcore.as_tangent(drho, 3)
    rho_inv, detr, coef = _dittmann3_invariants(dm)
    q1 = d - dm.mat @ d
    q2 = d - rho_inv @ d
    val = np.trace(d @ d + coef * (q1 @ q1 + detr * (q2 @ q2))).real
    return 0.25 * float(val)


def _dittmann3_invariants(dm: DensityMatrix) -> tuple[np.ndarray, float, float]:
    """(rho^{-1}, |rho|, 3/(1 - Tr rho^3)) of a 3x3 state, computed once
    per DensityMatrix and cached on it; a state that fails a check caches
    nothing, so it raises again on every call. No eigendecomposition is used,
    which keeps this route independent of the spectral one. The state is
    singular when e3/e2 = 2|rho|/(1 - Tr rho^2) <= DET_FLOOR: that ratio lies
    in [lambda_min/3, lambda_min], and |rho| does not once two eigenvalues are
    small."""
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
        inv = dm._dittmann3 = (matcore.inv(m), detr, 3.0 / (1.0 - tr3))
    return inv
