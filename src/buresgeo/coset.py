"""Coset-chart parameterization of 2- and 3-level density matrices.

A density matrix is built as rho = Omega D Omega† where D carries the
eigenvalues (one angle theta for n=2, two angles theta1, theta2 for n=3)
and Omega is a product of coset blocks carrying the eigenvector data.

Chart ranges:
    n=2:  theta in [0, pi/4];  alpha, phi free (periodic).
    n=3:  theta1 in [0, arccos(1/sqrt 3)], theta2 in [pi/6, pi/4];
          alpha, phi, psi1, psi2 free; beta = hypot(beta1, beta2) < pi.

The beta < pi restriction keeps the big coset block nonsingular
(sin beta = 0 with cos beta = -1 at beta = pi); states on that boundary are
reachable through the permutation identities instead. This makes the tuple
a chart, not a global cover, and not a one-to-one one: beta < pi covers the
flag manifold twice, and sqrt(det g) vanishes on the fold at beta = pi/2.
"""

from __future__ import annotations

import cmath
import math

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import matcore
from .errors import (
    DegenerateSpectrum,
    InvalidDensityMatrix,
    OutOfChartRange,
    VerificationFailure,
)
from .tol import GAP, INVARIANT, PERM_VERIFY, RANGE_EPS

THETA_MAX = math.pi / 4  # n = 2: theta in [0, THETA_MAX]
THETA1_MAX = math.acos(1.0 / math.sqrt(3.0))
THETA2_MIN = math.pi / 6
THETA2_MAX = math.pi / 4
BETA_MAX = math.pi
FREE3 = ("alpha", "phi", "beta1", "beta2", "psi1", "psi2")  # unbounded coordinates of n = 3


def _require_finite(name: str, value: float) -> float:
    """``float(value)``; OutOfChartRange if it is not a finite real number."""
    try:
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        raise OutOfChartRange(name, value, "must be a real number") from None
    if not math.isfinite(v):
        raise OutOfChartRange(name, value, "must be finite")
    return v


def _require_range(name: str, value: float, lo: float, hi: float) -> float:
    """Range check with RANGE_EPS slack; returns the value clamped into [lo, hi]."""
    v = _require_finite(name, value)
    if not (lo - RANGE_EPS <= v <= hi + RANGE_EPS):
        raise OutOfChartRange(name, v, f"must lie in [{lo:.10g}, {hi:.10g}]")
    return min(max(v, lo), hi)


def require_gap(lam: Sequence[float]) -> None:
    """Raise DegenerateSpectrum if two of the eigenvalues ``lam`` lie closer
    than GAP; a gap of exactly GAP passes. The metric routes and the chart
    inverse all take this one check."""
    for i, a in enumerate(lam):
        for b in lam[i + 1:]:
            if abs(a - b) < GAP:
                raise DegenerateSpectrum(f"eigenvalue gap {abs(a - b):.3e} below {GAP:.1e}")


@dataclass(frozen=True, init=False)
class CosetChart2:
    """Chart (theta, alpha, phi) for a 2-level state."""

    theta: float
    alpha: float = 0.0
    phi: float = 0.0

    def __init__(self, theta: float, alpha: float = 0.0, phi: float = 0.0):
        # one test passes an in-range float theta (clamping keeps it) and two finite
        # floats; anything else, or a sum that overflows, goes one coordinate at a time
        if not (type(theta) is type(alpha) is type(phi) is float
                and 0.0 <= theta <= THETA_MAX and math.isfinite(alpha + phi)):
            theta = _require_range("theta", theta, 0.0, THETA_MAX)
            alpha = _require_finite("alpha", alpha)
            phi = _require_finite("phi", phi)
        d = self.__dict__  # frozen: each checked value is stored once, directly
        d["theta"] = theta
        d["alpha"] = alpha
        d["phi"] = phi

    def values(self) -> tuple[float, float, float]:
        return (self.theta, self.alpha, self.phi)


@dataclass(frozen=True, init=False)
class CosetChart3:
    """Chart (theta1, theta2, alpha, phi, beta1, beta2, psi1, psi2) for a 3-level state."""

    theta1: float
    theta2: float
    alpha: float = 0.0
    phi: float = 0.0
    beta1: float = 0.0
    beta2: float = 0.0
    psi1: float = 0.0
    psi2: float = 0.0

    def __init__(self, theta1: float, theta2: float, alpha: float = 0.0, phi: float = 0.0,
                 beta1: float = 0.0, beta2: float = 0.0, psi1: float = 0.0, psi2: float = 0.0):
        # one test each passes two in-range float thetas (clamping keeps them) and six
        # finite floats; anything else, or a sum that overflows, goes one coordinate at a time
        if not (type(theta1) is type(theta2) is float
                and 0.0 <= theta1 <= THETA1_MAX and THETA2_MIN <= theta2 <= THETA2_MAX):
            theta1 = _require_range("theta1", theta1, 0.0, THETA1_MAX)
            theta2 = _require_range("theta2", theta2, THETA2_MIN, THETA2_MAX)
        if not (type(alpha) is type(phi) is type(beta1) is type(beta2) is type(psi1)
                is type(psi2) is float
                and math.isfinite(alpha + phi + beta1 + beta2 + psi1 + psi2)):
            alpha, phi, beta1, beta2, psi1, psi2 = (
                _require_finite(name, value)
                for name, value in zip(FREE3, (alpha, phi, beta1, beta2, psi1, psi2)))
        beta = math.hypot(beta1, beta2)
        if beta >= BETA_MAX:
            raise OutOfChartRange("beta", beta, f"hypot(beta1, beta2) must be < {BETA_MAX:.10g}")
        d = self.__dict__  # frozen: each checked value is stored once, directly
        d["theta1"] = theta1
        d["theta2"] = theta2
        d["alpha"] = alpha
        d["phi"] = phi
        d["beta1"] = beta1
        d["beta2"] = beta2
        d["psi1"] = psi1
        d["psi2"] = psi2

    @property
    def beta(self) -> float:
        return math.hypot(self.beta1, self.beta2)

    def values(self) -> tuple[float, ...]:
        return (self.theta1, self.theta2, self.alpha, self.phi,
                self.beta1, self.beta2, self.psi1, self.psi2)


class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix with cached derived data.

    Construction checks, in this order and to tolerance tol.INVARIANT, that
    every entry is finite, that the matrix is Hermitian, that its trace is 1,
    that its Hermitian part does not overflow (entries near 1e308, where no
    spectrum exists; a state has every |rho_ij| <= 1) and that no eigenvalue
    is below -INVARIANT: one pass over the entries, which also forms the
    Hermitian part (A + A^dag)/2 as one flat row-major list, shaped in place
    (numpy's bytes), and one eig_hermitian of it, kept. The
    states that rho2, rho3, diag2 and diag3 build are Hermitian, PSD and of
    unit trace by construction: they skip the checks and are decomposed on
    first use. 3x3 states cache the trace-form invariants of
    ``bures.dittmann3_form`` on first use: the rows of rho and of rho^{-1}
    (``.tolist()``), |rho| and 3/(1 - Tr rho^3). ``mat`` is private and
    read-only (a copy of the input, or the builder's fresh array), so neither
    a write to it nor a later change to the caller's array can leave the
    caches describing another matrix.
    """

    _spectral: Optional[matcore.SpectralDecomposition] = None
    _dittmann3: Optional[tuple] = None  # set by bures._dittmann3_invariants

    def __init__(self, mat):
        self.mat = mat = matcore.as_matrix(mat).copy()
        mat.setflags(write=False)
        # one pass over the upper-triangle pairs (A_ij, A_ji) as Python scalars,
        # cheaper than numpy at n <= 4: the Hermiticity defect, the trace and the
        # Hermitian part the solver reads, halved by the complex 2 as numpy
        # halves (byte for byte its (A + A^dag) / 2). A non-finite sum is a
        # non-finite entry or an overflow, told apart after the pass.
        rows = mat.tolist()
        n = len(rows)
        herm = [0j] * (n * n)
        worst, finite = 0.0, True
        tr = 0j  # summed from +0j in index order, as np.trace
        try:
            for i, row in enumerate(rows):
                for j in range(i, n):
                    a, b = row[j], rows[j][i]
                    c = b.conjugate()
                    d = abs(a - c)
                    if d > worst:
                        worst = d
                    s = a + c
                    if not cmath.isfinite(s):
                        finite = False
                    herm[i * n + j] = s / (2 + 0j)
                    herm[j * n + i] = (b + a.conjugate()) / (2 + 0j)
                tr += row[i]
        except OverflowError:  # |A_ij - conj(A_ji)| of finite parts beyond the largest float
            worst, finite = math.inf, False
        # finiteness of every entry comes first, as a nan passes every comparison below
        if not finite and not all(cmath.isfinite(z) for row in rows for z in row):
            raise InvalidDensityMatrix("matrix has a non-finite entry")
        if worst > INVARIANT:
            raise InvalidDensityMatrix(
                f"not Hermitian: max |A - A^dag| = {worst:.3e} > {INVARIANT:.1e}"
            )
        if abs(tr - 1.0) > INVARIANT:
            raise InvalidDensityMatrix(
                f"trace {tr!r} differs from 1 by more than {INVARIANT:.1e}"
            )
        if not finite:  # finite entries beyond 2**1023 overflow A + A^dag
            raise InvalidDensityMatrix(
                "not PSD: the spectrum overflows (a state has every |rho_ij| <= 1)"
            )
        # a flat list converts faster than nested rows; set in place, the shape
        # leaves the array owning its data, as in _built_from_flat
        part = np.array(herm, dtype=np.complex128)
        part.shape = (n, n)
        spec = matcore.eig_hermitian(part)
        if spec.eigenvalues[0] < -INVARIANT:
            raise InvalidDensityMatrix(
                f"not PSD: min eigenvalue {spec.eigenvalues[0]:.3e} < -{INVARIANT:.1e}"
            )
        self._spectral = spec

    @classmethod
    def _built(cls, mat: np.ndarray) -> DensityMatrix:
        """A state this module formed exactly: takes over the fresh complex128
        array ``mat``, unchecked and uncopied."""
        dm = object.__new__(cls)
        mat.setflags(write=False)
        dm.mat = mat
        return dm

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def spectral(self) -> matcore.SpectralDecomposition:
        if self._spectral is None:  # a built state
            self._spectral = matcore.eig_hermitian(self.mat)
        return self._spectral

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectral.eigenvalues


def as_density(rho) -> DensityMatrix:
    """A DensityMatrix as it is, anything else through the checked constructor."""
    return rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)


# ---------------------------------------------------------------------------
# sinc-type factors of the coset blocks: one formula each, free of
# cancellation at every finite x (tests/test_coset.py holds each to 1e-15
# relative against 50 digits)
# ---------------------------------------------------------------------------

def sinc(x: float) -> float:
    """sin(x)/x, and its limit 1 at x = 0. sin(x) rounds to x near 0, so the
    quotient is 1 there and needs no series."""
    return math.sin(x) / x if x else 1.0


def sin_half_over(x: float) -> float:
    """sin(x/2)/x = sinc(x/2)/2, and its limit 1/2 at x = 0. The quotient is
    taken over x/2, so it is exactly 1 where 0.5 * x rounds (subnormal x)."""
    h = 0.5 * x
    return math.sin(h) / h * 0.5 if h else 0.5


def one_minus_sinc(x: float) -> float:
    """1 - sin(x)/x. Below |x| = 1 its Taylor series, the sum over k = 1..11 of
    (-1)^(k+1) x^(2k)/(2k+1)! by Horner's rule in x^2, whose terms shrink by at
    least 20x each and whose remainder is below 1e-24 of the sum; at and above
    1 the direct form, where 1 - sin(x)/x >= 0.158 cancels at most 3 bits."""
    if -1.0 < x < 1.0:
        z = x * x
        return z * (1 / 6 - z * (1 / 120 - z * (1 / 5040 - z * (1 / 362880 - z * (
            1 / 39916800 - z * (1 / 6227020800 - z * (1 / 1307674368000 - z * (
                1 / 355687428096000 - z * (1 / 121645100408832000 - z * (
                    1 / 51090942171709440000 - z / 25852016738884976640000))))))))))
    return 1.0 - math.sin(x) / x


# ---------------------------------------------------------------------------
# coset representatives
# ---------------------------------------------------------------------------

def _omega2_rows(alpha: float, phi: float) -> list[list[complex]]:
    ca = complex(math.cos(alpha))
    e = cmath.rect(math.sin(alpha), phi)                # e^{i phi} sin a
    return [[ca, e], [-e.conjugate(), ca]]


def omega2(chart: CosetChart2) -> np.ndarray:
    """2x2 coset representative [[cos a, e^{i phi} sin a], [-e^{-i phi} sin a, cos a]]."""
    return np.array(_omega2_rows(chart.alpha, chart.phi), dtype=np.complex128)


def _omega3_rows(alpha: float, phi: float, beta1: float, beta2: float,
                 psi1: float, psi2: float) -> list[list[complex]]:
    """Rows of Omega at the chart's six coset coordinates, the k=3 block
    times the k=2 block, written out.

    Each block is the 3 x 3 identity outside its leading k x k corner,
    where it realizes SU(k)/U(k-1) for a complex (k-1)-vector B:

        [[cos sqrt(B B†),          B sinc(|B|)],
         [-sinc(|B|) B†,           cos |B|    ]]

    B B† is rank one, so cos sqrt(B B†) = I + (cos|B| - 1) B B† / |B|^2.
    The factor (cos|B| - 1)/|B|^2 is formed as -2 (sin(|B|/2)/|B|)^2, a
    product that cannot cancel, and B = 0 takes the sinc(0) = 1 and
    sin_half_over(0) = 1/2 limits. The k=3 block has
    B = (beta1 e^{i psi1}, beta2 e^{i psi2}). The k=2 block (B = alpha e^{i phi})
    is omega2's (cos alpha, e^{i phi} sin alpha), equal to within an ulp and
    finite at every finite alpha; it is the identity in its last row and
    column, so only the first two columns mix. The entries are formed
    from Python scalars and converted to an array once: at n = 3 numpy's
    per-operation overhead dominates the arithmetic. The 0j and 1 + 0j
    keep the signed zeros of the plain block product, which the tests
    compare against bit for bit.
    """
    (l00, l01), (l10, l11) = _omega2_rows(alpha, phi)
    b1, b2 = cmath.rect(beta1, psi1), cmath.rect(beta2, psi2)
    b1c, b2c = b1.conjugate(), b2.conjugate()
    babs = math.hypot(abs(b1), abs(b2))
    cfac, sfac = -2.0 * sin_half_over(babs) ** 2, sinc(babs)
    u00, u01 = (1 + 0j) + cfac * (b1 * b1c), 0j + cfac * (b1 * b2c)
    u10, u11 = 0j + cfac * (b2 * b1c), (1 + 0j) + cfac * (b2 * b2c)
    u20, u21 = -sfac * b1c, -sfac * b2c
    return [[u00 * l00 + u01 * l10, u00 * l01 + u01 * l11, b1 * sfac],
            [u10 * l00 + u11 * l10, u10 * l01 + u11 * l11, b2 * sfac],
            [u20 * l00 + u21 * l10, u20 * l01 + u21 * l11, complex(math.cos(babs))]]


def omega3(chart: CosetChart3) -> np.ndarray:
    """Full coset representative for n=3: the k=3 block times the k=2 block (any finite alpha)."""
    return np.array(_omega3_rows(chart.alpha, chart.phi, chart.beta1, chart.beta2,
                                 chart.psi1, chart.psi2), dtype=np.complex128)


# ---------------------------------------------------------------------------
# diagonal factors and assembled states
# ---------------------------------------------------------------------------

def _entries2(theta: float) -> tuple[float, float]:
    """(cos^2 theta, sin^2 theta)."""
    c2 = math.cos(theta) ** 2
    return (c2, 1.0 - c2)


def diag2(theta: float) -> DensityMatrix:
    """diag(cos^2 theta, sin^2 theta) for theta in [0, pi/4]."""
    theta = _require_range("theta", theta, 0.0, THETA_MAX)
    return DensityMatrix._built(np.diag(_entries2(theta)).astype(np.complex128))


def diag3(theta1: float, theta2: float) -> DensityMatrix:
    """diag(cos^2 t1, sin^2 t1 cos^2 t2, sin^2 t1 sin^2 t2); trace is 1 identically."""
    lam = diag_entries3(_require_range("theta1", theta1, 0.0, THETA1_MAX),
                        _require_range("theta2", theta2, THETA2_MIN, THETA2_MAX))
    return DensityMatrix._built(np.diag(lam).astype(np.complex128))


def diag_entries3(theta1: float, theta2: float) -> tuple[float, float, float]:
    """The three diagonal eigenvalues of diag3 without building the matrix."""
    s1sq = math.sin(theta1) ** 2
    return (1.0 - s1sq, s1sq * math.cos(theta2) ** 2, s1sq * math.sin(theta2) ** 2)


def _assemble2(om: list[list[complex]], lam: tuple[float, float]) -> DensityMatrix:
    """rho = Omega diag(lam) Omega† from the rows of a 2x2 Omega.

    Only rho_ij = sum_k (lam_k Omega_ik) conj(Omega_jk) for i <= j is formed:
    the diagonal keeps its real part and rho_10 is the conjugate of rho_01,
    so rho is exactly Hermitian with a real diagonal.
    """
    l0, l1 = lam
    (a0, a1), (b0, b1) = om
    wa0, wa1 = l0 * a0, l1 * a1
    wb0, wb1 = l0 * b0, l1 * b1
    a0, a1 = a0.conjugate(), a1.conjugate()
    b0, b1 = b0.conjugate(), b1.conjugate()
    r01 = wa0 * b0 + wa1 * b1
    r00 = complex((wa0 * a0 + wa1 * a1).real)
    r11 = complex((wb0 * b0 + wb1 * b1).real)
    return _built_from_flat([r00, r01, r01.conjugate(), r11], 2)


def _assemble3(om: list[list[complex]], lam: tuple[float, float, float]) -> DensityMatrix:
    """rho = Omega diag(lam) Omega† from the rows of a 3x3 Omega, written out
    like _assemble2: the upper triangle is formed and mirrored."""
    l0, l1, l2 = lam
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = om
    wa0, wa1, wa2 = l0 * a0, l1 * a1, l2 * a2
    wb0, wb1, wb2 = l0 * b0, l1 * b1, l2 * b2
    wc0, wc1, wc2 = l0 * c0, l1 * c1, l2 * c2
    a0, a1, a2 = a0.conjugate(), a1.conjugate(), a2.conjugate()
    b0, b1, b2 = b0.conjugate(), b1.conjugate(), b2.conjugate()
    c0, c1, c2 = c0.conjugate(), c1.conjugate(), c2.conjugate()
    r01 = wa0 * b0 + wa1 * b1 + wa2 * b2
    r02 = wa0 * c0 + wa1 * c1 + wa2 * c2
    r12 = wb0 * c0 + wb1 * c1 + wb2 * c2
    r00 = complex((wa0 * a0 + wa1 * a1 + wa2 * a2).real)
    r11 = complex((wb0 * b0 + wb1 * b1 + wb2 * b2).real)
    r22 = complex((wc0 * c0 + wc1 * c1 + wc2 * c2).real)
    return _built_from_flat([r00, r01, r02, r01.conjugate(), r11, r12,
                             r02.conjugate(), r12.conjugate(), r22], 3)


def _built_from_flat(flat: list[complex], n: int) -> DensityMatrix:
    """The built state whose n x n matrix has the row-major entries ``flat``:
    a flat list converts faster than nested rows, and setting the shape in
    place leaves the array owning its data."""
    a = np.array(flat, dtype=np.complex128)
    a.shape = (n, n)
    return DensityMatrix._built(a)


def rho2(chart: CosetChart2) -> DensityMatrix:
    """rho = Omega D Omega† on the 2-level chart (its constructor checked theta)."""
    return _assemble2(_omega2_rows(chart.alpha, chart.phi), _entries2(chart.theta))


def rho3(chart: CosetChart3) -> DensityMatrix:
    """rho = Omega D Omega† on the 3-level chart (its constructor checked the thetas)."""
    return _assemble3(_omega3_rows(chart.alpha, chart.phi, chart.beta1, chart.beta2,
                                   chart.psi1, chart.psi2),
                      diag_entries3(chart.theta1, chart.theta2))


# ---------------------------------------------------------------------------
# permutation identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PermutationIdentity:
    """One coset-parameter setting realizing a permutation of the levels.

    ``omega`` is the computed coset product; ``residual_exact`` its entrywise
    gap to the frozen matrix it equals. The products equal ``phase * perm``
    only modulo right-multiplication by diagonal phases (the torus
    stabilizer): ``residual_coset`` measures that statement,
    ``residual_literal`` the literal one (nonzero for every non-identity entry).
    """

    name: str
    perm: np.ndarray
    phase: complex
    omega: np.ndarray
    residual_exact: float
    residual_coset: float
    residual_literal: float


def _perm_matrix(sigma: Sequence[int]) -> np.ndarray:
    """Permutation matrix with column j supported on row sigma[j] (P e_j = e_sigma(j))."""
    p = np.zeros((3, 3))
    for j, i in enumerate(sigma):
        p[i, j] = 1.0
    return p


_I = 1j
_PERM_CASES = [
    # (name, settings, sigma as images of (0,1,2), phase, exact matrix)
    ("(Id)", dict(), (0, 1, 2), 1.0,
     np.eye(3, dtype=np.complex128)),
    ("i(12)", dict(alpha=math.pi / 2, phi=math.pi / 2), (1, 0, 2), _I,
     np.array([[0, _I, 0], [_I, 0, 0], [0, 0, 1]], dtype=np.complex128)),
    ("i(13)", dict(beta1=math.pi / 2, psi1=math.pi / 2), (2, 1, 0), _I,
     np.array([[0, 0, _I], [0, 1, 0], [_I, 0, 0]], dtype=np.complex128)),
    ("i(23)", dict(beta2=math.pi / 2, psi2=math.pi / 2), (0, 2, 1), _I,
     np.array([[1, 0, 0], [0, 0, _I], [0, _I, 0]], dtype=np.complex128)),
    ("i(123)", dict(beta1=math.pi / 2, psi1=math.pi / 2,
                    alpha=math.pi / 2, phi=math.pi / 2), (1, 2, 0), _I,
     np.array([[0, 0, _I], [_I, 0, 0], [0, -1, 0]], dtype=np.complex128)),
    ("i(321)", dict(beta2=math.pi / 2, psi2=math.pi / 2,
                    alpha=math.pi / 2, phi=math.pi / 2), (2, 0, 1), _I,
     np.array([[0, _I, 0], [0, 0, _I], [-1, 0, 0]], dtype=np.complex128)),
]


def permutation_table() -> list[PermutationIdentity]:
    """The six coset-parameter settings realizing the level permutations.

    Each entry is verified at construction: the coset product must equal the
    frozen ``exact`` matrix entrywise, and must equal ``phase * perm`` after
    absorbing per-column (torus) phases, both to tol.PERM_VERIFY. A failure
    signals an implementation bug and raises VerificationFailure.
    """
    out = []
    for name, settings, sigma, phase, exact in _PERM_CASES:
        om = omega3(CosetChart3(0.0, THETA2_MIN, **settings))  # theta does not enter Omega
        perm = _perm_matrix(sigma)
        res_exact = float(np.max(np.abs(om - exact)))
        target = phase * perm
        # R = target† Omega must be a diagonal unitary if Omega ~ target mod torus
        r = target.conj().T @ om
        off = r - np.diag(np.diag(r))
        res_coset = float(
            max(np.max(np.abs(off)), np.max(np.abs(np.abs(np.diag(r)) - 1.0)))
        )
        res_literal = float(np.max(np.abs(om - target)))
        if not (res_exact <= PERM_VERIFY and res_coset <= PERM_VERIFY):  # NaN fails
            raise VerificationFailure(
                f"permutation identity {name} failed: exact residual {res_exact:.3e}, "
                f"coset residual {res_coset:.3e}"
            )
        out.append(PermutationIdentity(
            name=name, perm=perm, phase=phase, omega=om, residual_exact=res_exact,
            residual_coset=res_coset, residual_literal=res_literal,
        ))
    return out
