"""Small fixed-size complex Hermitian linear algebra.

Everything here operates on dense square complex matrices held as
``numpy.ndarray`` (complex128). Sizes of interest are n <= 4, so we back
the heavy lifting (eigendecomposition, determinants) with numpy's LAPACK
bindings rather than hand-rolled iterations; the contracts below are what
the rest of the package relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def trace(a) -> complex:
    return complex(np.trace(as_matrix(a)))


def det(a) -> complex:
    return complex(np.linalg.det(as_matrix(a)))


def hermiticity_defect(a) -> float:
    """Max entrywise deviation of A from A†."""
    m = as_matrix(a)
    return float(np.max(np.abs(m - m.conj().T)))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen-data of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors holds the orthonormal
    eigenvectors as columns, so ``V @ diag(w) @ V†`` reconstructs the input.
    Ties keep whatever order the solver produced.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eig_hermitian(a) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitian if max |A - A†| entry exceeds tol.INVARIANT and
    ConvergenceFailure if the underlying solver gives up.
    """
    m = as_matrix(a)
    defect = hermiticity_defect(m)
    if defect > INVARIANT:
        raise NotHermitian(f"max |A - A^dag| entry = {defect:.3e} > {INVARIANT:.1e}")
    try:
        w, v = np.linalg.eigh(hermitize(m))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails at n<=4
        raise ConvergenceFailure(str(exc)) from exc
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)
