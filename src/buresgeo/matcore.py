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
it, and a non-finite result raises ConvergenceFailure. LAPACK failing on
finite input is the one way left to set numpy's invalid flag; it is not
known to happen at these sizes.
"""

from __future__ import annotations

import cmath
import math

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from numpy.linalg import _umath_linalg

from .errors import ConvergenceFailure, DimensionMismatch, InvalidTangent


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
    n x n, then InvalidTangent if an entry is NaN or infinite. The metric
    forms call this before any product, where such an entry would give NaN
    or numpy's invalid-value warning. A loop over ``.tolist()`` costs less
    than ``np.isfinite`` at n <= 4."""
    try:
        t = np.asarray(d, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InvalidTangent(f"not a complex matrix: {exc}") from None
    if t.shape != (n, n):
        raise DimensionMismatch(f"tangent of shape {t.shape} at a {n}x{n} state")
    if not all(map(cmath.isfinite, t.ravel().tolist())):
        raise InvalidTangent("tangent has a non-finite entry")
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


def det(a) -> complex:
    """Determinant by LU (LAPACK zgetrf), as ``np.linalg.det``."""
    return complex(_umath_linalg.det(as_matrix(a), signature="D->D"))


def det_real(g: np.ndarray) -> float:
    """Determinant of a real matrix by LU (LAPACK dgetrf), as
    ``np.linalg.det``. On an exactly singular g LAPACK divides by zero on
    the way to 0.0; the caller decides whether numpy warns."""
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

@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigen-data of a Hermitian matrix. Equality and hashing are by identity,
    as comparing the ndarray fields gives an array, not a truth value.

    eigenvalues are real and ascending; eigenvectors holds the orthonormal
    eigenvectors as columns, so ``V @ diag(w) @ V†`` reconstructs the input.
    Ties keep whatever order the solver produced. Built on first use and kept
    with the spectrum: the ``pairs`` table, the square-root factor ``root``,
    V† and a memo of the tangents projected into the eigenbasis
    (``memo_project``). The memo only holds
    read-only arrays that own their data, so no entry can go stale; it keeps
    one entry per such tangent and lives and dies with the spectrum, which a
    DensityMatrix owns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @cached_property
    def pairs(self) -> list[tuple[int, int, float]]:
        """(i, j, lambda_i + lambda_j) for every ordered index pair, i-major:
        the denominators of the Hubner pair sum (bures.hubner_form)."""
        w = self.eigenvalues.tolist()
        return [(i, j, wi + wj) for i, wi in enumerate(w) for j, wj in enumerate(w)]

    @cached_property
    def root(self) -> np.ndarray:
        """H = V sqrt(max(lambda, 0)): sqrt(rho) = H V† for a state's spectrum,
        whose eigenvalues in [-INVARIANT, 0) count as 0. The factor
        ``bures.fidelity`` reads, formed once per spectrum however many
        fidelities take it."""
        return self.eigenvectors * np.sqrt(np.maximum(self.eigenvalues, 0.0))

    @cached_property
    def _vh(self) -> np.ndarray:
        return self.eigenvectors.conj().T

    @cached_property
    def _projections(self) -> dict[int, tuple[np.ndarray, list[list[complex]]]]:
        return {}

    def project(self, d) -> list[list[complex]]:
        """(V† d V).tolist(), formed afresh: the tangent ``d`` in the
        eigenbasis, as Python rows. DimensionMismatch or InvalidTangent
        (as_tangent) before the product if ``d`` is not n x n or has a NaN or
        infinite entry."""
        return (self._vh @ as_tangent(d, len(self.eigenvalues)) @ self.eigenvectors).tolist()

    def memo_project(self, d) -> list[list[complex]]:
        """project(d), memoized by the identity of ``d`` when ``d`` is a
        read-only ndarray that owns its data: its contents cannot change
        while the entry lives, and the entry keeps ``d`` alive, so its id is
        not reused. Any other input (a writable array, a view, a list) is
        projected on every call. The rows returned are shared: read them
        only."""
        if type(d) is np.ndarray and d.base is None and not d.flags.writeable:
            hit = self._projections.get(id(d))
            if hit is None:
                hit = self._projections[id(d)] = (d, self.project(d))
            return hit[1]
        return self.project(d)


def eig_hermitian(h: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a finite, exactly Hermitian complex128 matrix:
    the Hermitian part a checked DensityMatrix formed, or a state rho2, rho3,
    diag2 or diag3 built, whose mirrored entries make it its own Hermitian
    part (up to the sign of a zero, which leaves the spectrum unchanged).
    Nothing here checks or symmetrizes it; ``DensityMatrix(m).spectral`` is
    the checked route for any other matrix.
    ConvergenceFailure if the spectrum is not finite. Both fields are stored
    directly: the frozen dataclass's ``__init__`` sets each through
    ``object.__setattr__``, 1.3 us a call against 0.6 us (best of 7 x
    200,000 calls, 2 vCPUs).
    """
    w, v = eigh(h)
    spec = object.__new__(SpectralDecomposition)
    store = spec.__dict__
    store["eigenvalues"] = w
    store["eigenvectors"] = v
    return spec
