"""Seeded random charts, states, tangents and Haar-random unitaries.

All randomness flows through numpy's PCG64 generator: a given 64-bit seed
produces the same sequence on every platform, which keeps the validation
sweeps and the acceptance suite reproducible bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np

from . import coset
from .coset import (BETA_MAX, CosetChart2, CosetChart3, THETA1_MAX, THETA2_MAX, THETA2_MIN,
                    THETA_MAX)
from .errors import DimensionMismatch
from .metric import family
from .tol import SAMPLE_GAP

MARGIN = 0.05     # fraction of each bounded range kept clear of the boundary


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for the given seed (same seed -> same sequence everywhere)."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def _shrunk(lo: float, hi: float) -> tuple[float, float]:
    width = hi - lo
    return (lo + MARGIN * width, hi - MARGIN * width)


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """rng.uniform(lo, hi) to the last bit, which numpy computes as
    lo + (hi - lo) * rng.random(), at a third of the cost of the call."""
    return lo + (hi - lo) * rng.random()


def random_chart2(rng: np.random.Generator) -> CosetChart2:
    """Uniform interior 2-level chart: theta in the shrunk range, angles in [0, 2pi)."""
    lo, hi = _shrunk(0.0, THETA_MAX)
    return CosetChart2(
        theta=_uniform(rng, lo, hi),
        alpha=_uniform(rng, 0.0, 2 * math.pi),
        phi=_uniform(rng, 0.0, 2 * math.pi),
    )


def random_chart3(rng: np.random.Generator) -> CosetChart3:
    """Uniform interior 3-level chart.

    theta coordinates are uniform in their ranges shrunk by MARGIN from
    each boundary, rejecting draws whose eigenvalue gaps or eigenvalues fall
    below tol.SAMPLE_GAP. The beta pair is drawn as a uniform radius in the
    shrunk [0, pi) ball with a uniform direction; the remaining angles are
    uniform over one period. That range covers the flag manifold twice, and
    beta is drawn uniformly across beta = pi/2, where sqrt(det g) vanishes.
    """
    t1lo, t1hi = _shrunk(0.0, THETA1_MAX)
    t2lo, t2hi = _shrunk(THETA2_MIN, THETA2_MAX)
    for _ in range(1000):
        t1 = _uniform(rng, t1lo, t1hi)
        t2 = _uniform(rng, t2lo, t2hi)
        lam = coset.diag_entries3(t1, t2)
        gaps = (abs(lam[0] - lam[1]), abs(lam[0] - lam[2]), abs(lam[1] - lam[2]))
        if min(gaps) >= SAMPLE_GAP and min(lam) >= SAMPLE_GAP:
            break
    else:  # pragma: no cover - margin makes rejection extremely rare
        raise RuntimeError("could not sample a nondegenerate spectrum in 1000 tries")
    beta = _uniform(rng, MARGIN * BETA_MAX, (1.0 - MARGIN) * BETA_MAX)
    chi = _uniform(rng, 0.0, 2 * math.pi)
    return CosetChart3(
        theta1=t1, theta2=t2,
        alpha=_uniform(rng, 0.0, 2 * math.pi),
        phi=_uniform(rng, 0.0, 2 * math.pi),
        beta1=beta * math.cos(chi), beta2=beta * math.sin(chi),
        psi1=_uniform(rng, 0.0, 2 * math.pi),
        psi2=_uniform(rng, 0.0, 2 * math.pi),
    )


def random_density(rng: np.random.Generator, n: int) -> coset.DensityMatrix:
    """Random interior state built through the chart of the right dimension."""
    fam = family(n)
    return fam.rho(fam.sample(rng))


def random_tangent(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random traceless Hermitian matrix with unit Frobenius norm (n >= 2)."""
    if n < 2:
        raise DimensionMismatch(f"no traceless unit-norm tangent exists at n={n}")
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (g + g.conj().T) / 2
    h -= np.trace(h).real / n * np.eye(n)
    return h / np.linalg.norm(h)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random n x n unitary: Q of the QR of a complex Ginibre matrix,
    with the phases of R's diagonal moved into Q (Mezzadri 2007)."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))
