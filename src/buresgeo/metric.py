"""Bures metric tensors over the 2- and 3-level coset charts.

Two independent routes are provided and cross-validated:

  * pullback_metric: numerical pullback of the spectral (Hubner) form
    through central finite differences of the chart map;
  * closed_metric2 / closed_metric3: the closed-form tensors.

FAMILIES holds, per n, the chart type, its coordinates and defaults, the
ranges the pullback keeps clear of, the routes and the extra checks of
`validate`; every n = 2 / n = 3 split in the package reads it.

The 3-level closed form is assembled from the trace-formula coefficients
t12, t13, t23 (one per eigenvalue pair) times polynomial factors in the
coset parameters. Those factors keep their digits at every chart: each
beta factor is one formula that cannot cancel (aux_coeffs), and gamma =
phi - psi1 + psi2 enters as a unit phase, never as a float that rounds to
the spacing of a huge phi (_closed_rows3). Of the printed entry list,
only g_phi_beta1 and g_phi_beta2 are misprinted (a missing sin gamma):
`closed_metric3(chart, entries="printed")` evaluates it, and `validate`
reports those two entries. The printed t-coefficient displays are errata of
the paper, recorded in the tests (README, "Validation notes").
"""

from __future__ import annotations

import cmath
import functools
import math
import sys

from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import coset, matcore
from .bures import hubner_form
from .coset import (
    BETA_MAX,
    CosetChart2,
    CosetChart3,
    DensityMatrix,
    THETA1_MAX,
    THETA2_MAX,
    THETA2_MIN,
    THETA_MAX,
    diag_entries3,
    one_minus_sinc,
    require_gap,
    sin_half_over,
    sinc,
)
from .errors import (
    BoundaryTooClose,
    DimensionMismatch,
    OutOfChartRange,
    ParseError,
    SingularState,
    VerificationFailure,
)
from .tol import DEFAULT_STEP, DET_FLOOR, INVARIANT, REL_DEV_FLOOR, TANGENT_FLOOR, TINY

COORDS2 = ("theta", "alpha", "phi")
COORDS3 = ("theta1", "theta2", "alpha", "phi", "beta1", "beta2", "psi1", "psi2")


def upper_entries(ordering: Sequence[str]) -> list[tuple[str, int, int]]:
    """(g_<a>_<b>, i, j) for every entry i <= j of a tensor over ``ordering``."""
    return [(f"g_{a}_{ordering[j]}", i, j)
            for i, a in enumerate(ordering) for j in range(i, len(ordering))]


_UPPER_ENTRIES = {ordering: upper_entries(ordering) for ordering in (COORDS2, COORDS3)}


@dataclass(frozen=True, init=False, eq=False)
class MetricTensor:
    """Symmetric real tensor together with its coordinate ordering. Equality
    and hashing are by identity, as comparing the ndarray g gives an array,
    not a truth value.

    The constructor checks g: a real (d, d) array over the d coordinates,
    symmetric to tol.INVARIANT; anything else is VerificationFailure. The
    closed tensors skip the check through `_built`, as they are symmetric
    bytewise by construction: `closed_metric2` builds a diagonal, and
    `_closed_rows3` writes one Python float at both (i, j) and (j, i).
    tests/test_reference.py holds both to g.tobytes() == g.T.tobytes().
    """

    ordering: tuple[str, ...]
    g: np.ndarray

    def __init__(self, ordering: tuple[str, ...], g: np.ndarray):
        store = self.__dict__  # frozen: each value is stored once, directly
        store["ordering"] = ordering
        try:
            arr = np.asarray(g)
            if arr.dtype.kind == "c":  # float() would drop the imaginary part
                raise TypeError(f"complex dtype {arr.dtype}")
            arr = store["g"] = arr.astype(float, copy=False)
        except (TypeError, ValueError) as exc:  # ragged rows, strings, objects
            raise VerificationFailure(f"tensor is not a real array: {exc}") from None
        d = len(ordering)
        if arr.shape != (d, d):
            raise VerificationFailure(f"tensor shape {arr.shape} does not match ordering")
        # equal bytes pass at once; signed zeros and nan payloads go on to
        # the elementwise test, unequal pairs to the subtraction
        if (arr.tobytes() != arr.T.tobytes() and not (arr == arr.T).all()
                and np.max(np.abs(arr - arr.T)) > INVARIANT):
            raise VerificationFailure(f"tensor not symmetric to {INVARIANT:.0e}")

    @classmethod
    def _built(cls, ordering: tuple[str, ...], g: np.ndarray) -> MetricTensor:
        """A tensor this module formed symmetric as a float64 (d, d) array:
        stored unchecked and uncopied."""
        mt = object.__new__(cls)
        store = mt.__dict__
        store["ordering"] = ordering
        store["g"] = g
        return mt

    def entry(self, a: str, b: str) -> float:
        """g_ab; ParseError if a or b is not a coordinate of the ordering."""
        for name in (a, b):
            if name not in self.ordering:
                raise ParseError(f"unknown coordinate {name!r}; the ordering is {self.ordering}")
        return float(self.g[self.ordering.index(a), self.ordering.index(b)])


def volume_element(metric: MetricTensor) -> float:
    """sqrt(det g), or +0.0 where det g <= 0, exactly singular g included: the
    Bures measure density in chart coordinates. VerificationFailure if det g is
    not finite (g has a nan or infinite entry, or det g overflows)."""
    d = matcore.det_real(metric.g)
    if not math.isfinite(d):
        raise VerificationFailure(f"det g = {d!r} is not finite")
    return 0.0 if d <= 0.0 else math.sqrt(d)


# ---------------------------------------------------------------------------
# numerical pullback
# ---------------------------------------------------------------------------

def _central_diff(builder: Callable[[Sequence[float]], DensityMatrix],
                  point: Sequence[float], i: int) -> np.ndarray:
    """d rho / d x_i by a central difference of step tol.DEFAULT_STEP, divided
    by the step the rounded coordinates x_i +- DEFAULT_STEP actually span."""
    up, dn = list(point), list(point)
    up[i] += DEFAULT_STEP
    dn[i] -= DEFAULT_STEP
    return (builder(up).mat - builder(dn).mat) / (up[i] - dn[i])


def pullback_metric(point: Sequence[float],
                    builder: Callable[[Sequence[float]], DensityMatrix],
                    coords: Sequence[str]) -> MetricTensor:
    """Pull the spectral form back through an arbitrary chart map.

    g_ij = hubner_form(rho, d_i rho, d_j rho) with the tangents from central
    differences of step tol.DEFAULT_STEP over the step actually taken;
    OutOfChartRange for a coordinate a step leaves unchanged (|x| >= 2**37).
    The spectrum at the centre must be nondegenerate (coset.require_gap).
    The tangents, which nothing else holds, are handed to rho's spectrum, so
    all d are projected into its eigenbasis in one product and the d(d+1)/2
    Hubner calls share those projections (SpectralDecomposition._hand). g is
    filled as Python rows, one float at (i, j) and (j, i), and checked by
    the MetricTensor constructor; no coordinates give the (0, 0) tensor.
    """
    pt = [float(x) for x in point]
    for name, x in zip(coords, pt):
        if x + DEFAULT_STEP == x or x - DEFAULT_STEP == x:
            raise OutOfChartRange(name, x, f"a step of {DEFAULT_STEP:.0e} leaves it unchanged")
    rho0 = builder(pt)
    require_gap(rho0.eigenvalues.tolist())
    d = len(pt)
    tangents = [_central_diff(builder, pt, i) for i in range(d)]
    rho0.spectral._hand(tangents)
    rows = [[0.0] * d for _ in range(d)]
    for i, ti in enumerate(tangents):
        for j in range(i, d):
            rows[i][j] = rows[j][i] = hubner_form(rho0, ti, tangents[j])
    return MetricTensor(tuple(coords), np.array(rows).reshape(d, d))


def _pullback(fam: Family, chart) -> MetricTensor:
    """Pullback tensor on ``fam``'s chart, more than two steps inside each bounded range."""
    margin = 2 * DEFAULT_STEP
    for name, lo, hi in fam.bounds:
        value = getattr(chart, name)
        if value - lo <= margin or hi - value <= margin:
            raise BoundaryTooClose(f"{name}={value!r} within {margin:.1e} of a range boundary")
    return pullback_metric(chart.values(), fam.build, fam.coords)


def pullback_metric2(chart: CosetChart2) -> MetricTensor:
    """Numerical pullback tensor on the 2-level chart, ordering COORDS2."""
    return _pullback(FAMILIES[2], chart)


def pullback_metric3(chart: CosetChart3) -> MetricTensor:
    """Numerical pullback tensor on the 3-level chart, ordering COORDS3."""
    return _pullback(FAMILIES[3], chart)


# ---------------------------------------------------------------------------
# 2-level closed form
# ---------------------------------------------------------------------------

def closed_metric2(chart: CosetChart2) -> MetricTensor:
    """diag(1, cos^2 2theta, (1/4) sin^2 2alpha cos^2 2theta), ordering (theta, alpha, phi).

    Requires theta strictly inside (0, pi/4): the endpoints are singular
    (pure state) or spectrally degenerate (maximally mixed).
    """
    if not (0.0 < chart.theta < THETA_MAX):
        raise OutOfChartRange("theta", chart.theta, "must lie strictly in (0, pi/4)")
    if not math.isfinite(2 * chart.alpha):
        raise OutOfChartRange("alpha", chart.alpha, "2 alpha overflows")
    c2t = math.cos(2 * chart.theta) ** 2
    s2a = math.sin(2 * chart.alpha) ** 2
    return MetricTensor._built(COORDS2, np.diag([1.0, c2t, 0.25 * s2a * c2t]))


class SCoeff2(NamedTuple):
    """Coset-sector coefficient of the 2-level trace formula."""

    s12: float


def s_coeff(d2) -> SCoeff2:
    """S12 = (1/|D|) (D11 - D22)^2 (D11 + D22 - D11 D22 - |D| - 1) for diagonal 2x2 D.

    DimensionMismatch unless D is 2x2 with |D_12| within tol.INVARIANT of 0.
    """
    dm = coset.as_density(d2)
    if dm.dim != 2 or abs(dm.mat[0, 1]) > INVARIANT:
        raise DimensionMismatch(f"s_coeff needs a diagonal 2x2 D; got n={dm.dim}, "
                                f"|D_12| = {abs(dm.mat[0, 1]):.3e}")
    d11 = float(dm.mat[0, 0].real)
    d22 = float(dm.mat[1, 1].real)
    detd = d11 * d22
    if detd <= DET_FLOOR:
        raise SingularState(f"|D| = {detd:.3e} is not above {DET_FLOOR:.1e}")
    s12 = (d11 - d22) ** 2 * (d11 + d22 - d11 * d22 - detd - 1.0) / detd
    return SCoeff2(s12=s12)


# ---------------------------------------------------------------------------
# 3-level coefficients
# ---------------------------------------------------------------------------

def t_coeffs(theta1: float, theta2: float) -> tuple[float, float, float]:
    """Eigenvalue-pair coefficients (t12, t13, t23) of the 3-level trace formula.

    Evaluating the trace expression on a tangent that excites a single
    eigenvector pair (i, j) gives the coefficient

        t_ij = -(1/2) (li - lj)^2 [ 1 + 3 (1-li)(1-lj)(1+lk) / (1 - Tr D^3) ]

    which simplifies (sum of eigenvalues being 1) to -(li - lj)^2/(li + lj), the
    form evaluated: 1 - Tr D^3 cancels at small theta1. t23 is the closed form
    -sin^2(theta1) cos^2(2 theta2), as l2 - l3 of the rounded eigenvalues loses
    digits while their gap closes. All three are <= 0; the tensor entries carry
    the opposite sign. OutOfChartRange for a non-finite theta.
    """
    for name, theta in (("theta1", theta1), ("theta2", theta2)):
        if not math.isfinite(theta):
            raise OutOfChartRange(name, theta, "must be finite")
    lam = diag_entries3(theta1, theta2)
    require_gap(lam)  # each l_i + l_j is then at least GAP
    l0, l1, l2 = lam
    return (-(l0 - l1) ** 2 / (l0 + l1), -(l0 - l2) ** 2 / (l0 + l2),
            -math.sin(theta1) ** 2 * math.cos(2.0 * theta2) ** 2)


class Coeffs3(NamedTuple):
    """Coset-sector auxiliaries of the 3-level closed form, a named 8-tuple in
    the order the closed rows unpack them. With n_k = beta_k / beta:

        u1 = n1^2 + n2^2 cos(beta),      u2 = n2^2 + n1^2 cos(beta),
        v1 = n1^2 + n2^2 sinc(beta),     v2 = n2^2 + n1^2 sinc(beta),
        w1 = 1 + cos(beta) + 2 n1^2 (1 - cos(beta)),  w2 likewise with n2^2,
        x = n1 n2 (1 - sinc(beta)),      y = n1 n2 (1 - cos(beta)).

    u1+u2 = 1+cos(beta) and v1+v2 = 1+sinc(beta) hold to a few ulp, because
    n1^2 + n2^2 = 1 does; the tests check both. The angles phi, psi1 and
    psi2 enter the tensor only through gamma = phi - psi1 + psi2, which
    `_closed_rows3` reads as a unit phase: no auxiliary carries it.
    """

    u1: float
    u2: float
    v1: float
    v2: float
    w1: float
    w2: float
    x: float
    y: float


def aux_coeffs(beta1: float, beta2: float) -> Coeffs3:
    """The auxiliaries u1..u2, v1..v2, w1..w2, x, y of Coeffs3 at (beta1, beta2).

    Each beta factor has one formula that cannot cancel: sinc(beta) is a
    quotient, 1 - cos(beta) = 2 beta^2 sin_half_over(beta)^2 a square (the
    factor that coset's Omega and the closed rows use), and 1 - sinc(beta)
    (coset.one_minus_sinc) a Taylor series below beta = 1. So the beta -> 0
    limits u=v=1, w=2, x=y=0 come out exactly rather than as 0/0, and x and
    y keep their relative digits at every beta. x and y take their limit 0
    whenever beta^2 underflows to 0 (|x|, |y| <= |beta1 beta2| / 2 there).
    OutOfChartRange if beta^2 is not finite (an input is nan or infinite, or
    overflows).
    """
    beta = math.hypot(beta1, beta2)
    if not beta * beta < math.inf:  # a nan fails too
        raise OutOfChartRange("beta", beta, "hypot(beta1, beta2) is nan or its square overflows")
    if beta == 0.0:
        n1sq = n2sq = 0.5  # direction undefined at the origin; limits are isotropic
    elif beta >= sys.float_info.min:
        n1sq = (beta1 / beta) ** 2
        n2sq = (beta2 / beta) ** 2
    else:  # hypot rounds a subnormal beta coarsely: scale both components exactly
        b1, b2 = beta1 * 2.0 ** 600, beta2 * 2.0 ** 600
        scaled = math.hypot(b1, b2)
        n1sq, n2sq = (b1 / scaled) ** 2, (b2 / scaled) ** 2
    cb = math.cos(beta)
    sc = sinc(beta)
    omc = 2.0 * beta * beta * sin_half_over(beta) ** 2  # 1 - cos(beta) = 2 sin^2(beta/2)
    oms = one_minus_sinc(beta)
    u1 = n1sq + n2sq * cb
    u2 = n2sq + n1sq * cb
    v1 = n1sq + n2sq * sc
    v2 = n2sq + n1sq * sc
    w1 = (1.0 + cb) + 2.0 * n1sq * omc
    w2 = (1.0 + cb) + 2.0 * n2sq * omc
    if beta * beta == 0.0:
        x = y = 0.0
    else:
        x = (beta1 * beta2 / beta ** 2) * oms
        y = (beta1 * beta2 / beta ** 2) * omc
    return Coeffs3(u1, u2, v1, v2, w1, w2, x, y)


# ---------------------------------------------------------------------------
# 3-level closed form
# ---------------------------------------------------------------------------

def _closed_rows3(chart: CosetChart3, t: tuple[float, float, float], beta: float, *,
                  entries: str) -> list[float]:
    """The 64 entries of the closed 3-level tensor, row-major, ordering COORDS3.

    Rows 0-1 are the eigenvalue block diag(1, sin^2 theta1) with zero
    eigenvalue-coset cross blocks; rows 2-7 are the 6x6 coset block, one
    closed-form expression per entry, each a linear combination of the
    eigenvalue-pair coefficients t = (t12, t13, t23) with coefficients in
    the coset parameters (aux_coeffs; shb = (sin(beta/2)/beta)^2 and
    snb = sinc(beta), two quotients that cannot cancel, carry the beta
    dependence).

    phi, psi1 and psi2 enter through gamma = phi - psi1 + psi2 alone, read
    as the unit phase e^{i gamma} = e^{i phi} e^{-i psi1} e^{i psi2}: cos
    gamma and sin gamma are its parts, and sin 2 gamma = 2 sin gamma cos
    gamma. gamma is never formed as a float, so it does not round to the
    spacing of a huge phi, and every finite angle has its tensor.

    ``entries="validated"`` evaluates the oracle-checked formulas.
    ``entries="printed"`` evaluates the circulated list verbatim; it differs
    in exactly one place: g_phi_beta1 (and its multiple g_phi_beta2) is
    missing a sin(gamma) factor there. The validator reports the difference.
    OutOfChartRange if 4 alpha overflows, where sin is undefined.
    """
    if entries not in ("validated", "printed"):
        raise ValueError(f"unknown entry convention {entries!r}")
    t12, t13, t23 = t
    b1, b2 = chart.beta1, chart.beta2
    u1, u2, v1, v2, w1, w2, x, y = aux_coeffs(b1, b2)
    if not math.isfinite(4 * chart.alpha):
        raise OutOfChartRange("alpha", chart.alpha, "4 alpha overflows")
    eg = cmath.rect(1.0, chart.phi) * cmath.rect(1.0, -chart.psi1) * cmath.rect(1.0, chart.psi2)
    cg, sg = eg.real, eg.imag             # cos(gamma), sin(gamma)
    s2g = 2.0 * sg * cg                   # sin(2 gamma)
    sa, ca = math.sin(chart.alpha), math.cos(chart.alpha)
    s2a, c2a = math.sin(2 * chart.alpha), math.cos(2 * chart.alpha)
    s4a = math.sin(4 * chart.alpha)
    shb = sin_half_over(beta) ** 2        # (sin(beta/2)/beta)^2
    snb = sinc(beta)                      # sin(beta)/beta
    shb2, snb2 = shb * shb, snb * snb
    # repeated pure subterms, each evaluated once exactly as written inline
    sa2, ca2, s2a2, cg2 = sa ** 2, ca ** 2, s2a ** 2, cg ** 2
    b1sq, b2sq, x2, y2 = b1 ** 2, b2 ** 2, x ** 2, y ** 2
    omsg, omcg = 1.0 - s2a2 * sg ** 2, 1.0 - s2a2 * cg2
    h13 = 0.5 * (t13 - t23)
    xv1, xv2 = x * v1 * s2a * cg, x * v2 * s2a * cg
    uy1, uy2 = u1 * y * s2a * cg, u2 * y * s2a * cg
    vvx, uuy = 0.5 * (v1 * v2 + x2) * s2a * cg, 0.5 * s2a * cg * (u1 * u2 + y2)
    k1 = 2.0 * b2 * u2 * s2a2 * s2g - b1 * w2 * s4a * sg
    k2 = 2.0 * b1 * u1 * s2a2 * s2g + b2 * w1 * s4a * sg

    phi_b1_gamma = sg if entries == "validated" else 1.0

    a_b1, a_b2 = 2.0 * t12 * b2 * cg * shb, -2.0 * t12 * b1 * cg * shb
    a_s1 = 2.0 * t12 * b1 * b2 * u2 * sg * shb
    a_s2 = 2.0 * t12 * b1 * b2 * u1 * sg * shb
    p_b1 = -0.5 * t12 * b2 * s4a * phi_b1_gamma * shb
    p_b2 = 0.5 * t12 * b1 * s4a * phi_b1_gamma * shb
    p_s1 = 0.5 * t12 * b1 * s2a * (b1 * w2 * s2a + 2.0 * b2 * u2 * c2a * cg) * shb
    p_s2 = -0.5 * t12 * b2 * s2a * (b2 * w1 * s2a - 2.0 * b1 * u1 * c2a * cg) * shb
    b1_b2 = (4.0 * t12 * b1 * b2 * omsg * shb2
             - t13 * (x * (v1 * ca2 + v2 * sa2) - vvx)
             - t23 * (x * (v1 * sa2 + v2 * ca2) + vvx))
    b1_s1 = -t12 * b1 * b2 * k1 * shb2 + h13 * b1 * s2a * sg * (u2 * x + v1 * y) * snb
    b1_s2 = -t12 * b2sq * k2 * shb2 - h13 * b2 * s2a * sg * (u1 * v1 + x * y) * snb
    b2_s1 = t12 * b1sq * k1 * shb2 + h13 * b1 * s2a * sg * (u2 * v2 + x * y) * snb
    b2_s2 = t12 * b1 * b2 * k2 * shb2 - h13 * b2 * s2a * sg * (u1 * x + v2 * y) * snb
    s1_s2 = (-t12 * b1 * b2 * (4.0 * b1 * b2 * u1 * u2 * omcg
                               - b1 * b2 * w1 * w2 * s2a2
                               - s4a * cg * (b2sq * u2 * w1 - b1sq * u1 * w2)) * shb2
             + t13 * b1 * b2 * (y * (u1 * sa2 + u2 * ca2) + uuy) * snb2
             + t23 * b1 * b2 * (y * (u1 * ca2 + u2 * sa2) - uuy) * snb2)
    return [
        1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.0, math.sin(chart.theta1) ** 2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.0, 0.0, -t12, 0.0, a_b1, a_b2, a_s1, a_s2,
        0.0, 0.0, 0.0, -0.25 * t12 * s2a2, p_b1, p_b2, p_s1, p_s2,
        0.0, 0.0, a_b1, p_b1,
        (-4.0 * t12 * b2sq * omsg * shb2
         - t13 * (x2 * sa2 + v1 ** 2 * ca2 - xv1)
         - t23 * (x2 * ca2 + v1 ** 2 * sa2 + xv1)),
        b1_b2, b1_s1, b1_s2,
        0.0, 0.0, a_b2, p_b2, b1_b2,
        (-4.0 * t12 * b1sq * omsg * shb2
         - t13 * (x2 * ca2 + v2 ** 2 * sa2 - xv2)
         - t23 * (x2 * sa2 + v2 ** 2 * ca2 + xv2)),
        b2_s1, b2_s2,
        0.0, 0.0, a_s1, p_s1, b1_s1, b2_s1,
        (-t12 * b1sq * (4.0 * b2sq * u2 ** 2 * omcg + b1sq * w2 ** 2 * s2a2
                        + 2.0 * b1 * b2 * u2 * w2 * s4a * cg) * shb2
         - t13 * b1sq * (u2 ** 2 * ca2 + y2 * sa2 + uy2) * snb2
         - t23 * b1sq * (u2 ** 2 * sa2 + y2 * ca2 - uy2) * snb2),
        s1_s2,
        0.0, 0.0, a_s2, p_s2, b1_s2, b2_s2, s1_s2,
        (-t12 * b2sq * (4.0 * b1sq * u1 ** 2 * omcg + b2sq * w1 ** 2 * s2a2
                        - 2.0 * b1 * b2 * u1 * w1 * s4a * cg) * shb2
         - t13 * b2sq * (u1 ** 2 * sa2 + y2 * ca2 + uy1) * snb2
         - t23 * b2sq * (u1 ** 2 * ca2 + y2 * sa2 - uy1) * snb2),
    ]


def closed_metric3(chart: CosetChart3, *, entries: str = "validated") -> MetricTensor:
    """Closed-form 8x8 tensor, ordering COORDS3.

    Structure: top-left block diag(1, sin^2 theta1) for the two eigenvalue
    coordinates, zero eigenvalue-coset cross blocks, and a full 6x6 coset
    block assembled from t_coeffs and aux_coeffs (see `_closed_rows3`).
    Needs an interior point: eigenvalues at least tol.GAP apart and beta
    strictly in (0, pi).
    """
    beta = chart.beta
    if not (0.0 < beta < BETA_MAX):
        raise OutOfChartRange("beta", beta, "must lie strictly in (0, pi)")
    t = t_coeffs(chart.theta1, chart.theta2)
    flat = _closed_rows3(chart, t, beta, entries=entries)
    return MetricTensor._built(COORDS3, np.array(flat, dtype=np.float64).reshape(8, 8))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    """Cross-validation of the metric routes at one chart point.

    Carries the pullback and closed tensors, their entrywise deviations,
    Dittmann-vs-Hubner residuals along the coordinate tangents, the volume
    deviation over Hadamard's bound sqrt(prod g_aa) of the closed tensor, and
    the S12 relation (n = 2) or the gamma-shift residual and the deviation of
    the two misprinted entries from the pullback (n = 3).
    """

    n: int
    chart: dict
    ordering: tuple[str, ...]
    pullback: np.ndarray
    closed: np.ndarray
    entry_abs_dev: dict[str, float]
    max_abs_dev: float
    max_rel_dev: float
    dittmann_max_rel_dev: float
    dittmann_reading: str
    volume_pullback: float
    volume_closed: float
    volume_rel_dev: float
    gamma_shift_dev: float | None = None
    printed_entry_dev: dict[str, float] | None = None
    s_coeff_relation_dev: float | None = None

    def to_dict(self) -> dict:
        """Every field that is set, in declaration order, as JSON-ready values."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None:
                out[f.name] = (v.tolist() if isinstance(v, np.ndarray)
                               else list(v) if isinstance(v, tuple) else v)
        return out


def _entry_devs(entries, a: np.ndarray, b: np.ndarray) -> dict[str, float]:
    """|a_ij - b_ij| for each (key, i, j) of ``entries``."""
    diff = (a - b).tolist()
    return {key: abs(diff[i][j]) for key, i, j in entries}


def _max_or_nan(x: float, y: float) -> float:
    """The larger of ``x`` and ``y``, nan if either is nan: builtin max keeps
    its first argument when a comparison with nan is False, so max(0.0, nan)
    is 0.0 and a nan deviation would pass every gate. Keeps ``x`` on a tie,
    as max(x, y) does."""
    return y if y > x or y != y else x


def _rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    """Max entrywise relative deviation over entries of non-negligible size.

    Entries below REL_DEV_FLOOR in both tensors (structural zeros plus
    finite-difference noise) are excluded; their disagreement is only
    meaningful in absolute terms. A nan entry is kept, and makes the result nan.
    """
    scale = np.maximum(np.abs(a), np.abs(b))
    keep = ~(scale < REL_DEV_FLOOR)
    return float(np.max(np.abs(a - b)[keep] / scale[keep]))


def validate(chart) -> ValidationReport:
    """Full cross-validation at one interior chart point (n inferred from the chart)."""
    fam = next((f for f in FAMILIES.values() if isinstance(chart, f.chart)), None)
    if fam is None:
        raise TypeError(f"expected CosetChart2 or CosetChart3, got {type(chart)!r}")
    pull = fam.pullback(chart)
    closed = fam.closed(chart)
    rho = fam.rho(chart)
    # differenced again (bench/selftest.py pins both passes), all before the
    # first form: interleaving the rho builds with the forms ran ~8 % slower
    pt = chart.values()
    units = []
    for t in [_central_diff(fam.build, pt, i) for i in range(len(pt))]:
        x = t.ravel()  # np.linalg.norm's Frobenius formula, without its wrapper
        nrm = math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
        if not nrm < TANGENT_FLOOR:
            units.append(t / nrm)
    # each unit tangent is projected once, all in one product (nothing else holds them)
    rho.spectral._hand(units)
    dmax = 0.0
    for t in units:
        hub = hubner_form(rho, t, t)
        dit = fam.dittmann(rho, t)
        dmax = _max_or_nan(dmax, abs(dit - hub) / max(abs(hub), TINY))
    vol_p, vol_c = volume_element(pull), volume_element(closed)
    # Hadamard's bound sqrt(prod g_aa) >= sqrt(det g): a scale that stays
    # positive across the beta = pi/2 fold, where the closed volume is 0
    hadamard = math.sqrt(math.prod(closed.g.diagonal().tolist()))
    dev = _entry_devs(_UPPER_ENTRIES[fam.coords], pull.g, closed.g)
    extra = fam.checks(chart, pull, closed)
    return ValidationReport(
        n=fam.n, chart=dict(zip(fam.coords, chart.values())),
        ordering=fam.coords, pullback=pull.g, closed=closed.g,
        entry_abs_dev=dev, max_abs_dev=functools.reduce(_max_or_nan, dev.values()),
        max_rel_dev=_rel_dev(pull.g, closed.g),
        dittmann_max_rel_dev=dmax, dittmann_reading="printed",
        volume_pullback=vol_p, volume_closed=vol_c,
        volume_rel_dev=abs(vol_p - vol_c) / max(hadamard, TINY),
        **extra,
    )


def _s_relation(chart: CosetChart2, pull: MetricTensor, closed: MetricTensor) -> dict:
    """n = 2: the deviation from -S12 = 2 g_alpha_alpha."""
    s12 = s_coeff(coset.diag2(chart.theta)).s12
    return {"s_coeff_relation_dev": abs(-s12 - 2.0 * closed.entry("alpha", "alpha"))}


# the entries the printed list gets wrong; it equals the validated one elsewhere
_MISPRINTED = [e for e in _UPPER_ENTRIES[COORDS3] if e[0] in ("g_phi_beta1", "g_phi_beta2")]


def _printed_checks(chart: CosetChart3, pull: MetricTensor, closed: MetricTensor) -> dict:
    """n = 3: the gamma-shift invariance of the closed tensor, and the
    misprinted entries against the pullback."""
    printed = closed_metric3(chart, entries="printed")
    return {
        "gamma_shift_dev": _gamma_shift_dev(chart),
        "printed_entry_dev": _entry_devs(_MISPRINTED, pull.g, printed.g),
    }


GAMMA_SHIFTS = ((0.37, 0.0), (0.0, -0.61))  # the (a, b) of _gamma_shift_dev


def _gamma_shift_dev(chart: CosetChart3) -> float:
    """Max entry change of the closed tensor under the gamma-preserving shifts
    (phi, psi1, psi2) -> (phi + a + b, psi1 + a, psi2 - b), (a, b) in GAMMA_SHIFTS.
    psi2 takes up the shift that the rounded phi actually took, so gamma is
    kept to the rounding of the small angles and a huge phi measures the
    tensor, not the spacing of phi."""
    base = closed_metric3(chart).g
    dev = 0.0
    for a, b in GAMMA_SHIFTS:
        phi = chart.phi + a + b
        shifted = CosetChart3(
            chart.theta1, chart.theta2, chart.alpha, phi,
            chart.beta1, chart.beta2, chart.psi1 + a, chart.psi2 - (phi - chart.phi - a))
        dev = _max_or_nan(dev, float(np.max(np.abs(closed_metric3(shifted).g - base))))
    return dev


# ---------------------------------------------------------------------------
# chart families
# ---------------------------------------------------------------------------

def _late(path: str) -> Callable:
    """The function at ``path`` ("module.name" in this package), looked up at
    each call: bench/spans.py rebinds module attributes, and a path needs no
    import, so metric imports neither sampling nor recover. Every route
    takes positional arguments only."""
    module, name = path.split(".")
    modules, key = sys.modules, f"{__package__}.{module}"

    def route(*args):
        return getattr(modules[key], name)(*args)

    route.path = path
    return route


@dataclass(frozen=True)
class Family:
    """The chart of one n: its type, coordinates and defaults, the bounded
    ranges (name, lo, hi) the pullback keeps two steps away from, its routes
    (late-bound by path) and the extra checks of `validate`."""

    n: int
    chart: type
    coords: tuple[str, ...]
    defaults: dict
    bounds: tuple[tuple[str, float, float], ...]
    rho: Callable
    closed: Callable
    pullback: Callable
    sample: Callable
    dittmann: Callable
    find: Callable
    checks: Callable[[object, MetricTensor, MetricTensor], dict]

    def build(self, values: Sequence[float]) -> DensityMatrix:
        """The state at the chart point with coordinate values ``values``."""
        return self.rho(self.chart(*values))

    def tensor(self, method: str) -> Callable:
        """The metric route named by ``method``: "closed" or "pullback"."""
        return self.closed if method == "closed" else self.pullback


FAMILIES = {
    2: Family(2, CosetChart2, COORDS2, dict.fromkeys(COORDS2, 0.0),
              (("theta", 0.0, THETA_MAX),),
              *map(_late, ("coset.rho2", "metric.closed_metric2", "metric.pullback_metric2",
                           "sampling.random_chart2", "bures.dittmann2_form",
                           "recover.find_chart2")),
              _s_relation),
    # beta = hypot(beta1, beta2) is never negative: only its upper end binds
    3: Family(3, CosetChart3, COORDS3, {**dict.fromkeys(COORDS3, 0.0), "theta2": math.pi / 6},
              (("theta1", 0.0, THETA1_MAX), ("theta2", THETA2_MIN, THETA2_MAX),
               ("beta", -math.inf, BETA_MAX)),
              *map(_late, ("coset.rho3", "metric.closed_metric3", "metric.pullback_metric3",
                           "sampling.random_chart3", "bures.dittmann3_form",
                           "recover.find_chart3")),
              _printed_checks),
}


def family(n: int) -> Family:
    """The chart family of ``n``; OutOfChartRange for an n without a chart."""
    if n not in FAMILIES:
        raise OutOfChartRange("n", n, "only n=2 and n=3 are charted")
    return FAMILIES[n]
