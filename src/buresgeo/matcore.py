"""Small fixed-size complex Hermitian linear algebra.

Everything here operates on dense square complex matrices held as
``numpy.ndarray`` (complex128). Sizes of interest are n <= 4, so we back
the heavy lifting (eigendecomposition, singular values, determinants,
inverses) with LAPACK rather than hand-rolled iterations; the contracts
below are what the rest of the package relies on.

This module makes the package's only calls into LAPACK. They go straight
to the gufuncs of ``numpy.linalg._umath_linalg`` that ``np.linalg`` itself
calls (``eigh_lo``, ``svd``, ``det``, ``inv``), with the same type
signatures, so every result equals the ``np.linalg`` one byte for byte. At
n = 3 the ``np.linalg`` wrapper (coercion, type dispatch, an ``errstate``
block) is about half of a call (best of 7 x 20,000 calls, 2 vCPUs): 3 x 3
``eigh`` 8.2-9.6 us against 3.7-4.5 us for the gufunc, singular values
9.2-11.0 against 5.5-6.4 us, 8 x 8 ``det`` 4.1-5.1 against 1.7-2.8 us.
Without the wrapper no ``LinAlgError`` is raised, so each kernel decides
its own failures: its callers refuse non-finite input before LAPACK sees
it, and a non-finite result raises ConvergenceFailure. The LU of a finite
matrix can divide by a zero or subnormal pivot, so ``det`` and ``det_real``
never warn: they return its value, nan included, and the caller judges it.
A spectrum's arrays (``SpectralDecomposition``) are read-only, like a
state's matrix, so the data cached with them cannot go stale.
"""

from __future__ import annotations

import math

from types import MappingProxyType

import numpy as np

from numpy.linalg import _umath_linalg

from .errors import ConvergenceFailure, DimensionMismatch, InvalidTangent
from .tol import EPS_SPEC, TANGENT_MAX


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 array; DimensionMismatch for anything
    else, input numpy cannot read as a complex array included."""
    try:
        m = np.asarray(a, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"not a complex matrix: {exc}") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def as_tangent(d, n: int) -> np.ndarray:
    """Coerce a tangent at an n x n state to complex128: InvalidTangent
    unless numpy reads it as a complex array, DimensionMismatch unless it is
    n x n, then InvalidTangent if a real or imaginary part is NaN or beyond
    tol.TANGENT_MAX, infinite included: the metric forms call this before any
    product, which would give NaN, inf or a numpy warning. One pass over the
    parts as Python floats (whose abs, unlike a complex abs, cannot overflow)
    costs less than numpy's ufuncs at n <= 4."""
    try:
        t = np.asarray(d, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InvalidTangent(f"not a complex matrix: {exc}") from None
    if t.shape != (n, n):
        raise DimensionMismatch(f"tangent of shape {t.shape} at a {n}x{n} state")
    # TANGENT_MAX >= |x| is False for a nan as well as an inf
    if not all(map(TANGENT_MAX.__ge__, map(abs, t.ravel().view(np.float64).tolist()))):
        raise InvalidTangent(f"tangent has a part that is nan or beyond {TANGENT_MAX:.1e}")
    return t


# ---------------------------------------------------------------------------
# LAPACK kernels: np.linalg's gufuncs without np.linalg's wrapper
# ---------------------------------------------------------------------------

def eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(h)`` of a finite complex128 Hermitian matrix: the
    eigenvalues ascending and the eigenvectors as columns, from the lower
    triangle (LAPACK zheevd). ConvergenceFailure if they are not finite."""
    w, v = _umath_linalg.eigh_lo(h, signature="D->dD")
    # a failed solve is all nan; an overflowing spectrum is inf at an end
    if not (math.isfinite(w[0]) and math.isfinite(w[-1])):
        raise ConvergenceFailure(f"eigenvalues are not finite: {w.tolist()}")
    return w, v


def singular_values(a: np.ndarray) -> np.ndarray:
    """``np.linalg.svd(a, compute_uv=False)`` of a finite complex128
    matrix, descending (LAPACK zgesdd). ConvergenceFailure if they are not
    finite."""
    s = _umath_linalg.svd(a, signature="D->d")
    if not math.isfinite(s[0]):
        raise ConvergenceFailure(f"singular values are not finite: {s.tolist()}")
    return s


# one errstate for both LU kernels; as a decorator it is built once, not per call
_quiet_lu = np.errstate(divide="ignore", invalid="ignore", over="ignore")


@_quiet_lu
def det(a) -> complex:
    """Determinant by LU (LAPACK zgetrf), as ``np.linalg.det``, without a
    warning: nan where the LU meets a subnormal pivot, for the caller to refuse."""
    return complex(_umath_linalg.det(as_matrix(a), signature="D->D"))


@_quiet_lu
def det_real(g: np.ndarray) -> float:
    """Determinant of a real matrix by LU (LAPACK dgetrf), as
    ``np.linalg.det``, without a warning: 0.0 on an exactly singular g."""
    return float(_umath_linalg.det(g, signature="d->d"))


def inv(a: np.ndarray) -> np.ndarray:
    """``np.linalg.inv(a)`` of a finite complex128 matrix the caller has
    found nonsingular (LAPACK zgesv). ConvergenceFailure if an entry of the
    inverse is not finite."""
    r = _umath_linalg.inv(a, signature="D->D")
    if not np.isfinite(r).all():
        raise ConvergenceFailure("inverse has a non-finite entry")
    return r


# ---------------------------------------------------------------------------
# Hermitian eigendecomposition
# ---------------------------------------------------------------------------

class SpectralDecomposition:
    """Eigen-data of a Hermitian matrix, compared and hashed by identity.

    eigenvalues are real and ascending; eigenvectors holds the orthonormal
    eigenvectors as columns, so ``V @ diag(w) @ V†`` reconstructs the input.
    Ties keep whatever order the solver produced. Both arrays are taken over
    uncopied and made read-only, like a DensityMatrix's matrix, and so is
    ``root``. Built on first use and kept with the spectrum, which a
    DensityMatrix owns: the ``pairs`` tables, the square-root factor ``root``,
    V† and the rows of the tangents last handed over (``_hand``). Each is a
    class-level placeholder until then: ``functools.cached_property`` takes a
    lock on its first read on Python 3.11, about 0.6 of the 3.4 us a first
    ``root`` read cost with it (timeit, best of 15, 2 vCPUs). ``project``
    gives any tangent's rows in the eigenbasis.
    """

    _pairs = None
    _root = None
    _vh = None
    _handed = MappingProxyType({})  # each hand-over stores a fresh dict of its own

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        eigenvalues.setflags(write=False)
        eigenvectors.setflags(write=False)
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors

    @property
    def pairs(self) -> tuple[list[tuple[int, int, float]], list[tuple[int, int, float]]]:
        """(kept, dropped): (i, j, lambda_i + lambda_j) for every ordered index
        pair, i-major in each list, split at tol.EPS_SPEC. The kept pairs are
        the terms of the Hubner pair sum (bures.hubner_form), the dropped ones
        the pairs it checks for support leakage."""
        pairs = self._pairs
        if pairs is None:
            w = self.eigenvalues.tolist()
            table = [(i, j, wi + wj) for i, wi in enumerate(w) for j, wj in enumerate(w)]
            pairs = self._pairs = ([p for p in table if p[2] > EPS_SPEC],
                                   [p for p in table if not p[2] > EPS_SPEC])
        return pairs

    @property
    def root(self) -> np.ndarray:
        """H = V sqrt(max(lambda, 0)): sqrt(rho) = H V† for a state's spectrum,
        whose eigenvalues in [-INVARIANT, 0) count as 0. The factor
        ``bures.fidelity`` reads, formed once per spectrum however many
        fidelities take it. The clamp is taken only when lambda_min <= 0: above
        it changes nothing, so both branches give the clamped bytes."""
        root = self._root
        if root is None:
            w = self.eigenvalues
            root = self._root = self.eigenvectors * np.sqrt(
                w if w[0] > 0.0 else np.maximum(w, 0.0))
            root.setflags(write=False)
        return root

    def _adjoint(self) -> np.ndarray:
        """V†, formed on first use."""
        vh = self._vh
        if vh is None:
            vh = self._vh = self.eigenvectors.conj().T
        return vh

    def _hand(self, tangents: list) -> None:
        """Check each of ``tangents`` in order (as_tangent: the first bad one
        raises), project all in one stacked product V† T V, and keep each
        one's rows under its identity for ``project``, in place of those
        handed over before. The two callers, pullback_metric and
        metric.validate, hand over tangents that nothing else holds, so none
        can change, and each entry keeps its tangent alive, so its id is not
        reused. numpy does not promise that the stacked product equals the
        single-matrix one; a tier-1 test checks the bytes."""
        handed = self._handed = {}
        if not tangents:
            return
        n = len(self.eigenvalues)
        # np.array of the d (n, n) arrays is np.stack's array without its wrapper
        stack = np.array([as_tangent(t, n) for t in tangents])
        for t, rows in zip(tangents, (self._adjoint() @ stack @ self.eigenvectors).tolist()):
            handed[id(t)] = (t, rows)

    def project(self, d) -> list[list[complex]]:
        """(V† d V).tolist(): the tangent ``d`` in the eigenbasis, as Python
        rows. The kept rows of a tangent handed over (``_hand``), shared, so
        read them only; anything else is projected afresh on every call.
        DimensionMismatch or InvalidTangent (as_tangent) before the product
        if ``d`` is not n x n or has a NaN or infinite entry."""
        hit = self._handed.get(id(d))
        if hit is not None:
            return hit[1]
        return (self._adjoint() @ as_tangent(d, len(self.eigenvalues))
                @ self.eigenvectors).tolist()


def eig_hermitian(h: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a finite, exactly Hermitian complex128 matrix:
    the Hermitian part a checked DensityMatrix formed, or a state rho2, rho3,
    diag2 or diag3 built, whose mirrored entries make it its own Hermitian
    part (up to the sign of a zero, which leaves the spectrum unchanged).
    Nothing here checks or symmetrizes it; ``DensityMatrix(m).spectral`` is
    the checked route for any other matrix. The record holds the kernel's own
    arrays, read-only. ConvergenceFailure if the spectrum is not finite.
    """
    return SpectralDecomposition(*eigh(h))
