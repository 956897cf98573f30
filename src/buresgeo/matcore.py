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

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian
from .tol import INVARIANT


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def hermitize(a) -> np.ndarray:
    """Hermitian part (A + A†)/2."""
    m = as_matrix(a)
    return (m + m.conj().T) / 2


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

def hermiticity_defect(rows: list[list[complex]]) -> float:
    """Max entrywise |A - A†| of a square matrix given as Python rows
    (``A.tolist()``); inf if that overflows. nan if an entry of A - A† is
    nan, and also if the defect is within tol.INVARIANT but an entry of
    A + A† is not finite (finite entries beyond 2**1023), where hermitize(A)
    overflows. At n <= 4 a loop over the upper triangle costs less than
    numpy; (j, i) repeats (i, j)."""
    worst = 0.0
    overflow = False
    try:
        for i, row in enumerate(rows):
            for j in range(i, len(rows)):
                a, c = row[j], rows[j][i].conjugate()
                d = abs(a - c)
                if d != d:
                    return d
                if d > worst:
                    worst = d
                if not cmath.isfinite(a + c):
                    overflow = True
    except OverflowError:  # |A_ij - conj(A_ji)| of finite parts beyond the largest float
        return math.inf
    return math.nan if overflow and worst <= INVARIANT else worst


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen-data of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors holds the orthonormal
    eigenvectors as columns, so ``V @ diag(w) @ V†`` reconstructs the input.
    Ties keep whatever order the solver produced. ``pairs`` is built on first
    use and kept with the spectrum.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @cached_property
    def pairs(self) -> list[tuple[int, int, float]]:
        """(i, j, lambda_i + lambda_j) for every ordered index pair, i-major:
        the denominators of the Hubner pair sum (bures.hubner_form)."""
        w = self.eigenvalues.tolist()
        return [(i, j, wi + wj) for i, wi in enumerate(w) for j, wj in enumerate(w)]


def eig_hermitian(a) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitian if max |A - A†| entry exceeds tol.INVARIANT, and
    ConvergenceFailure, before the solver runs, if the defect is nan (a nan
    entry, or a Hermitian part that overflows: see hermiticity_defect) and,
    after it, if the spectrum is not finite.
    """
    m = as_matrix(a)
    defect = hermiticity_defect(m.tolist())
    if defect > INVARIANT:
        raise NotHermitian(f"max |A - A^dag| entry = {defect:.3e} > {INVARIANT:.1e}")
    if defect != defect:
        raise ConvergenceFailure("A - A^dag or A + A^dag has a non-finite entry: "
                                 "not passed to the eigensolver")
    w, v = eigh(hermitize(m))
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)
