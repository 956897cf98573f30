import cmath
import dataclasses
import hashlib
import importlib
import inspect
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from buresgeo import coset, matcore, metric
from buresgeo.coset import (
    CosetChart2,
    CosetChart3,
    THETA1_MAX,
    THETA2_MAX,
    THETA2_MIN,
    diag2,
)
from buresgeo.errors import (
    BoundaryTooClose,
    BuresGeoError,
    DegenerateSpectrum,
    DimensionMismatch,
    OutOfChartRange,
    ParseError,
    SingularState,
    VerificationFailure,
)
from buresgeo.metric import (
    COORDS2,
    COORDS3,
    MetricTensor,
    aux_coeffs,
    closed_metric2,
    closed_metric3,
    pullback_metric2,
    pullback_metric3,
    s_coeff,
    t_coeffs,
    t_coeffs_printed,
    t_coeffs_printed_generic,
    validate,
    volume_element,
)
from buresgeo.sampling import make_rng, random_chart2, random_chart3, random_tangent
from buresgeo.tol import DEFAULT_STEP, INVARIANT, REL_DEV_FLOOR, TANGENT_FLOOR


# ---------------------------------------------------------------------------
# pullback
# ---------------------------------------------------------------------------

def test_pullback2_diagonal_form():
    rng = make_rng(0)
    for _ in range(10):
        ch = random_chart2(rng)
        g = pullback_metric2(ch)
        assert g.entry("theta", "theta") == pytest.approx(1.0, abs=1e-8)
        assert abs(g.entry("alpha", "phi")) <= 1e-8
        assert abs(g.entry("theta", "alpha")) <= 1e-8
        assert abs(g.entry("theta", "phi")) <= 1e-8


def test_pullback3_eigenvalue_block():
    rng = make_rng(1)
    for _ in range(5):
        ch = random_chart3(rng)
        g = pullback_metric3(ch)
        assert g.entry("theta1", "theta1") == pytest.approx(1.0, abs=1e-8)
        assert g.entry("theta2", "theta2") == pytest.approx(
            math.sin(ch.theta1) ** 2, abs=1e-7)
        assert abs(g.entry("theta1", "theta2")) <= 1e-7
        for coord in COORDS3[2:]:
            assert abs(g.entry("theta1", coord)) <= 1e-8
            assert abs(g.entry("theta2", coord)) <= 1e-8


def _family(chart) -> metric.Family:
    return metric.FAMILIES[3 if isinstance(chart, CosetChart3) else 2]


def pullback_reference(chart):
    """The pullback with every one of its d(d+1)/2 pairs projecting both
    tangents into the eigenbasis afresh, one matrix at a time, then the Hubner
    pair sum i-major, as hubner_form runs it (these full-rank states keep
    every pair)."""
    fam = _family(chart)
    pt = list(chart.values())
    rho0 = fam.build(pt)
    w = rho0.eigenvalues.tolist()
    v = rho0.spectral.eigenvectors
    tangents = [metric._central_diff(fam.build, pt, i) for i in range(len(pt))]
    g = np.zeros((len(pt), len(pt)))
    for i, ti in enumerate(tangents):
        for j in range(i, len(pt)):
            x1, x2 = ((v.conj().T @ t @ v).tolist() for t in (ti, tangents[j]))
            total = 0.0
            for a, wa in enumerate(w):
                for b, wb in enumerate(w):
                    total += (x1[a][b] * x2[b][a]).real / (wa + wb)
            g[i, j] = g[j, i] = 0.5 * total
    return g


def _chart3(**values):
    return CosetChart3(**{"theta1": 0.5, "theta2": 0.6, "alpha": 0.3, "phi": 0.4,
                          "beta1": 0.4, "beta2": 0.2, "psi1": 0.1, "psi2": 0.2, **values})


# three pullback steps inside each end of theta1, theta2 and beta, but for
# theta1 -> 0, where the two small eigenvalues lie sin^2 theta1 cos 2 theta2 <
# tol.GAP apart (DegenerateSpectrum); the sliver chart of tests/test_reference.py
# (lambda3 = 6.8e-7); huge free angles; the 2-level theta ends
_EDGE = 3 * DEFAULT_STEP
PULLBACK_EDGE_CHARTS = [
    _chart3(theta1=math.asin(math.sqrt(2.5e-6)), theta2=0.55),
    _chart3(theta1=THETA1_MAX - _EDGE),
    _chart3(theta2=THETA2_MIN + _EDGE),
    _chart3(theta2=THETA2_MAX - _EDGE),
    _chart3(beta1=_EDGE, beta2=0.0),
    _chart3(beta1=0.0, beta2=-_EDGE),
    _chart3(beta1=math.pi - _EDGE, beta2=0.0),
    _chart3(phi=1e9, alpha=1e9),
    CosetChart2(_EDGE, 0.3, 0.4),
    CosetChart2(math.pi / 4 - _EDGE, 0.3, 0.4),
    CosetChart2(0.3, 1e9, 1e9),
]


def test_pullback3_shared_projections_match_fresh_ones_bit_for_bit():
    # the d projections the pullback hands over give the bytes of fresh ones
    # in every pair, at seeded charts of both n and at the edges
    rng3, rng2 = make_rng(20), make_rng(21)
    charts = [random_chart3(rng3) for _ in range(50)] + [random_chart2(rng2) for _ in range(50)]
    for ch in charts + PULLBACK_EDGE_CHARTS:
        assert _family(ch).pullback(ch).g.tobytes() == pullback_reference(ch).tobytes(), ch


@pytest.mark.parametrize("d", [0, 1, 2, 3, 8])
def test_hand_rows_equal_per_tangent_products_bit_for_bit(d):
    # the one stacked product of a hand-over gives each tangent the bytes of
    # its own V† T V, at the edge charts and seeded charts of both n; the
    # chart's differenced tangents first, then random ones
    rng = make_rng(22)
    charts = PULLBACK_EDGE_CHARTS + [random_chart3(rng) for _ in range(10)]
    charts += [random_chart2(rng) for _ in range(10)]
    for ch in charts:
        fam = _family(ch)
        spec = fam.rho(ch).spectral
        pt = list(ch.values())
        tangents = [metric._central_diff(fam.build, pt, i) for i in range(len(pt))]
        tangents = (tangents + [random_tangent(rng, fam.n) for _ in range(d)])[:d]
        spec._hand(tangents)
        assert len(spec._handed) == d
        for t in tangents:
            rows = spec.project(t)
            assert rows is spec._handed[id(t)][1]
            assert np.array(rows).tobytes() == (spec._vh @ t @ spec.eigenvectors).tobytes(), ch


@pytest.mark.parametrize("n", [2, 3])
def test_hand_raises_the_error_of_its_first_bad_tangent(n):
    # each tangent is checked in order before the product: a bad one at
    # position k raises as matcore.as_tangent does on it alone, ahead of a
    # later bad one, and leaves no rows of this or an earlier hand-over
    rng = make_rng(24)
    chart = random_chart2(rng) if n == 2 else random_chart3(rng)
    spec = _family(chart).rho(chart).spectral
    good = [random_tangent(rng, n) for _ in range(4)]
    later = np.zeros((n + 1, n + 1))
    for bad in (np.full((n, n), np.nan), np.zeros((n + 1, n + 1)), np.zeros(n), "abc"):
        with pytest.raises(BuresGeoError) as alone:
            matcore.as_tangent(bad, n)
        for k in range(len(good) + 1):
            spec._hand(good)
            with pytest.raises(type(alone.value)) as handed:
                spec._hand([*good[:k], bad, *good[k:], later])
            assert str(handed.value) == str(alone.value)
            assert spec._handed == {}


def test_validate_hands_over_its_unit_tangents(monkeypatch):
    # validate normalizes each differenced tangent by numpy's Frobenius norm
    # (np.linalg.norm's bytes), skips one below tol.TANGENT_FLOOR and hands
    # the rest to its state's spectrum; their kept rows are fresh projections
    handed = []
    hand = matcore.SpectralDecomposition._hand

    def recording(spec, tangents):
        hand(spec, tangents)
        handed.append((spec, list(tangents), dict(spec._handed)))

    monkeypatch.setattr(matcore.SpectralDecomposition, "_hand", recording)
    rng3, rng2 = make_rng(25), make_rng(26)
    for ch in [random_chart3(rng3) for _ in range(10)] + [random_chart2(rng2) for _ in range(10)]:
        fam = _family(ch)
        handed.clear()
        validate(ch)
        (pull_spec, _, _), (spec, units, rows) = handed
        pt = list(ch.values())
        want = [t / float(np.linalg.norm(t))
                for t in (metric._central_diff(fam.build, pt, i) for i in range(len(pt)))
                if not float(np.linalg.norm(t)) < TANGENT_FLOOR]
        assert spec is not pull_spec and len(units) == len(rows) == len(want)
        for unit, w in zip(units, want):
            assert unit.tobytes() == w.tobytes()
            assert (np.array(rows[id(unit)][1]).tobytes()
                    == (spec._vh @ unit @ spec.eigenvectors).tobytes())


def test_pullback3_is_invariant_under_the_gamma_shifts():
    # the state depends on (phi, psi1, psi2) beyond gamma = phi - psi1 + psi2, so only
    # the pullback can break this (the closed rows read gamma alone). Measured <= 5.5e-11
    # of max |g| over these charts, an 18x margin
    rng = make_rng(9)
    for _ in range(100):
        ch = random_chart3(rng)
        base = pullback_metric3(ch).g
        for a, b in metric.GAMMA_SHIFTS:
            shifted = CosetChart3(ch.theta1, ch.theta2, ch.alpha, ch.phi + a + b,
                                  ch.beta1, ch.beta2, ch.psi1 + a, ch.psi2 - b)
            dev = np.abs(pullback_metric3(shifted).g - base).max()
            assert dev <= 1e-9 * np.abs(base).max()


def test_pullback_guards():
    with pytest.raises(BoundaryTooClose):
        pullback_metric2(CosetChart2(1e-7, 0.3, 0.1))
    with pytest.raises(BoundaryTooClose):
        pullback_metric2(CosetChart2(math.pi / 4 - 1.5e-5, 0.3, 0.1))
    with pytest.raises(DegenerateSpectrum):
        # theta close enough to pi/4 to collapse the gap below GAP; the generic
        # pullback has no boundary margin, so the centre's gap check fires
        metric.pullback_metric([math.pi / 4 - 4e-7, 0.3, 0.1],
                               lambda p: coset.rho2(CosetChart2(*p)), COORDS2)
    # no coordinates: the (0, 0) tensor
    empty = metric.pullback_metric([], lambda p: coset.rho2(CosetChart2(0.3)), ())
    assert empty.ordering == () and empty.g.shape == (0, 0) and empty.g.dtype == np.float64


# each point lies 1.5 steps (DEFAULT_STEP = 1e-5) from one end of a bounded range
PULLBACK3_EDGES = {
    "theta1-low": dict(theta1=1.5e-5),
    "theta1-high": dict(theta1=THETA1_MAX - 1.5e-5),
    "theta2-low": dict(theta2=THETA2_MIN + 1.5e-5),
    "theta2-high": dict(theta2=THETA2_MAX - 1.5e-5),
    "beta-pi": dict(beta1=math.pi - 1.5e-5, beta2=0.0),
    "beta-pi-split": dict(beta1=(math.pi - 1.5e-5) * 0.6, beta2=(math.pi - 1.5e-5) * 0.8),
}


@pytest.mark.parametrize("edge", PULLBACK3_EDGES.values(), ids=PULLBACK3_EDGES)
def test_pullback3_boundary_too_close(edge):
    base = dict(theta1=0.6, theta2=0.68, alpha=0.3, phi=0.4, beta1=0.9, beta2=0.5,
                psi1=0.1, psi2=0.7)
    with pytest.raises(BoundaryTooClose):
        pullback_metric3(CosetChart3(**{**base, **edge}))


# ---------------------------------------------------------------------------
# 2-level closed form
# ---------------------------------------------------------------------------

def test_closed_metric2_substitution():
    g = closed_metric2(CosetChart2(math.pi / 8, math.pi / 4, 0.9))
    np.testing.assert_allclose(g.g, np.diag([1.0, 0.5, 0.125]), atol=1e-14)


def test_closed_metric2_degenerate_directions():
    g = closed_metric2(CosetChart2(math.pi / 4 - 1e-9, 0.7, 0.0))
    assert abs(g.entry("alpha", "alpha")) <= 1e-8  # cos 2 theta -> 0
    g = closed_metric2(CosetChart2(0.3, 0.0, 0.0))
    assert g.entry("phi", "phi") == 0.0            # sin 2 alpha = 0


def test_closed_metric2_range():
    with pytest.raises(OutOfChartRange):
        closed_metric2(CosetChart2(0.0, 0.3, 0.0))


def test_closed_metric2_matches_pullback_grid():
    # a small slice of the acceptance grid
    for theta in np.linspace(0.06, math.pi / 4 - 0.03, 5):
        for alpha in np.linspace(0.0, math.pi, 4):
            ch = CosetChart2(float(theta), float(alpha), 0.8)
            dev = np.max(np.abs(closed_metric2(ch).g - pullback_metric2(ch).g))
            assert dev <= 1e-7


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_s_coeff_equal_eigenvalues():
    assert s_coeff(diag2(math.pi / 4)).s12 == pytest.approx(0.0, abs=1e-15)


def test_s_coeff_direct_substitution():
    assert s_coeff(diag2(math.pi / 6)).s12 == pytest.approx(-0.5, abs=1e-14)


def test_s_coeff_vs_closed_metric():
    # -S12 equals twice the alpha-alpha entry of the closed tensor at the
    # same theta (the factor 2 is part of the validated relation)
    for theta in (0.2, 0.5, 0.7):
        s12 = s_coeff(diag2(theta)).s12
        g_aa = closed_metric2(CosetChart2(theta, 0.3, 0.1)).entry("alpha", "alpha")
        assert -s12 == pytest.approx(2.0 * g_aa, rel=1e-12)


def test_s_coeff_singular():
    with pytest.raises(SingularState):
        s_coeff(diag2(0.0))


def test_s_coeff_refuses_a_d_that_is_not_diagonal_2x2():
    # it reads D11 and D22 only, so any other state would give a number
    # for a matrix the formula is not about
    off = np.array([[0.6, INVARIANT], [INVARIANT, 0.4]], dtype=complex)
    assert s_coeff(off).s12 == s_coeff(np.diag([0.6, 0.4])).s12
    for state in (coset.rho3(random_chart3(make_rng(7))), coset.rho2(CosetChart2(0.3, 0.4, 0.1)),
                  off + 2 * INVARIANT * np.array([[0, 1j], [-1j, 0]])):
        with pytest.raises(DimensionMismatch, match="diagonal 2x2") as exc:
            s_coeff(state)
        assert exc.value.exit_code == 4


def test_t_coeffs_equal_eigenvalue_limit():
    # lambda1 = lambda2 when cos^2 t1 = sin^2 t1 cos^2 t2; approach that line
    t2 = 0.72
    t1 = math.atan(1.0 / math.cos(t2))
    t = t_coeffs(t1 - 2e-4, t2)
    assert abs(t[0]) <= 1e-6
    with pytest.raises(DegenerateSpectrum):
        t_coeffs(t1, t2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_t_coeffs_refuse_a_theta_that_is_not_finite(bad):
    # a nan passed the gap check and came back as (nan, nan, nan); an inf
    # raised ValueError from math.sin
    for at, name in ((0, "theta1"), (1, "theta2")):
        thetas = [0.5, 0.6]
        thetas[at] = bad
        with pytest.raises(OutOfChartRange, match=rf"^coordinate {name}=") as exc:
            t_coeffs(*thetas)
        assert exc.value.exit_code == 2


def test_t_coeffs_match_pullback_alpha_entry():
    # -t12 is the alpha-alpha entry of the pullback tensor at beta ~ 0
    for (t1, t2) in [(math.pi / 4, math.pi / 5), (0.6, 0.65), (0.85, 0.78)]:
        ch = CosetChart3(t1, t2, alpha=0.4, phi=1.0, beta1=0.0, beta2=0.0)
        g = pullback_metric3(ch)
        t12 = t_coeffs(t1, t2)[0]
        assert g.entry("alpha", "alpha") == pytest.approx(-t12, abs=1e-8)


def test_t_coeffs_simplify_to_pair_ratio():
    # the trace-form coefficient -(1/2)(li-lj)^2 [1 + 3(1-li)(1-lj)(1+lk)/(1 - Tr D^3)]
    # collapses to the -(li-lj)^2/(li+lj) that t_coeffs evaluates
    rng = make_rng(2)
    for _ in range(50):
        ch = random_chart3(rng)
        lam = coset.diag_entries3(ch.theta1, ch.theta2)
        d = 1.0 - sum(x ** 3 for x in lam)
        t = t_coeffs(ch.theta1, ch.theta2)
        for val, (i, j, k) in zip(t, ((0, 1, 2), (0, 2, 1), (1, 2, 0))):
            expected = -0.5 * (lam[i] - lam[j]) ** 2 * (
                1.0 + 3.0 * (1.0 - lam[i]) * (1.0 - lam[j]) * (1.0 + lam[k]) / d)
            assert val == pytest.approx(expected, rel=1e-12)


def loop_t_coeffs(theta1, theta2):
    """t_coeffs as an index loop over the reduced form: the reference that the
    written-out coefficients must match bit for bit."""
    lam = coset.diag_entries3(theta1, theta2)
    coset.require_gap(lam)
    return tuple(-(lam[i] - lam[j]) ** 2 / (lam[i] + lam[j])
                 for i, j in ((0, 1), (0, 2), (1, 2)))


def test_t_coeffs_match_the_loop_bit_for_bit():
    rng = make_rng(11)
    thetas = [(ch.theta1, ch.theta2) for ch in (random_chart3(rng) for _ in range(2000))]
    # the range ends; theta1 = 0.0012 collapses the lambda2 - lambda3 gap below GAP,
    # and the last two leave every gap above GAP with lambda3 below 1e-6
    thetas += [(t1, t2) for t1 in (0.0012, 0.5, THETA1_MAX - 1e-3, THETA1_MAX)
               for t2 in (THETA2_MIN, 0.6, THETA2_MAX - 1e-3, THETA2_MAX)]
    thetas += [(math.asin(math.sqrt(3e-6)), THETA2_MIN), (math.asin(math.sqrt(2.5e-6)), 0.55)]
    checked = 0
    for t1, t2 in thetas:
        try:
            want = loop_t_coeffs(t1, t2)
        except DegenerateSpectrum as exc:
            with pytest.raises(DegenerateSpectrum, match=re.escape(str(exc))):
                t_coeffs(t1, t2)
            continue
        assert np.array(t_coeffs(t1, t2)).tobytes() == np.array(want).tobytes(), (t1, t2)
        checked += 1
    assert checked >= 2000


def test_t_coeffs_all_nonpositive():
    rng = make_rng(3)
    for _ in range(200):
        ch = random_chart3(rng)
        assert all(v <= 0.0 for v in t_coeffs(ch.theta1, ch.theta2))


def test_t_coeffs_printed_variants_deviate():
    # the two printed displays disagree with the trace-form coefficient (and
    # with each other); the validator reports this, here we pin it down
    t1, t2 = math.pi / 4, math.pi / 6
    tt = t_coeffs(t1, t2)
    tp = t_coeffs_printed(t1, t2)
    tg = t_coeffs_printed_generic(t1, t2)
    assert tt[0] == pytest.approx(-1.0 / 56.0, rel=1e-12)
    assert abs(tp[0] - tt[0]) > 1e-2
    assert abs(tg[0] - tt[0]) > 1e-2
    assert abs(tp[0] - tg[0]) > 1e-2


def test_aux_coeffs_limits_at_zero():
    c = aux_coeffs(1e-9, 1e-9)
    for v, expected in ((c.u1, 1.0), (c.u2, 1.0), (c.v1, 1.0), (c.v2, 1.0),
                        (c.w1, 2.0), (c.w2, 2.0), (c.x, 0.0), (c.y, 0.0)):
        assert v == pytest.approx(expected, abs=1e-12)
    # at beta = 0 itself the documented limits come out exactly, not as 0/0
    c = aux_coeffs(0.0, 0.0)
    assert (c.u1, c.u2, c.v1, c.v2, c.w1, c.w2, c.x, c.y) == (1.0, 1.0, 1.0, 1.0,
                                                              2.0, 2.0, 0.0, 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta1,beta2", [(1e-300, 0.0), (0.0, 1e-300), (1e-170, 1e-170)])
def test_beta_whose_square_underflows_takes_the_zero_limit(beta1, beta2):
    # beta > 0 but beta * beta == 0.0: x and y take their beta -> 0 limit
    # instead of dividing by zero, and the closed tensor stays finite
    c = aux_coeffs(beta1, beta2)
    assert (c.x, c.y) == (0.0, 0.0)
    g = closed_metric3(CosetChart3(0.5, 0.6, 0.3, 0.4, beta1, beta2, 0.1, 0.7)).g
    assert np.isfinite(g).all()


def test_aux_coeffs_symmetry():
    c = aux_coeffs(0.8, 0.8)
    assert c.u1 == pytest.approx(c.u2, abs=1e-15)
    assert c.v1 == pytest.approx(c.v2, abs=1e-15)
    assert c.w1 == pytest.approx(c.w2, abs=1e-15)


def test_aux_coeffs_substitution():
    c = aux_coeffs(math.pi / 2, 0.0)
    assert c.u1 == pytest.approx(1.0, abs=1e-15)
    assert c.u2 == pytest.approx(0.0, abs=1e-15)
    assert c.w2 == pytest.approx(1.0, abs=1e-15)  # 1 + cos(pi/2)
    assert c.x == pytest.approx(0.0, abs=1e-15)
    assert c.y == pytest.approx(0.0, abs=1e-15)


def test_aux_coeffs_identities_random():
    rng = make_rng(4)
    for _ in range(100):
        b = rng.uniform(1e-6, math.pi - 0.01)
        chi = rng.uniform(0, 2 * math.pi)
        c = aux_coeffs(b * math.cos(chi), b * math.sin(chi))
        assert c.u1 + c.u2 == pytest.approx(1 + math.cos(b), abs=1e-12)
        assert c.v1 + c.v2 == pytest.approx(1 + math.sin(b) / b, abs=1e-12)
        assert c.w1 + c.w2 == pytest.approx(4.0, abs=1e-12)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(beta1=st.floats(allow_nan=False, allow_infinity=False),
       beta2=st.floats(allow_nan=False, allow_infinity=False))
@example(0.0, 0.0)
@example(-0.0, 0.0)
@example(5e-324, 0.0)
@example(-5e-324, 5e-324)
@example(1e-300, 1e-300)
@example(1e150, 0.0)
@example(1e150, -1e150)
def test_aux_coeffs_identities_hold_over_the_whole_domain(beta1, beta2):
    # both sums are (n1^2 + n2^2) times the right side, so they hold to a few ulp:
    # measured <= 8.9e-16 over about 200,000 pairs from 5e-324 to 1.3e154 (a 2.2x margin).
    # Where beta^2 overflows there is no coefficient to check
    beta = math.hypot(beta1, beta2)
    if not beta * beta < math.inf:
        with pytest.raises(OutOfChartRange):
            aux_coeffs(beta1, beta2)
        return
    c = aux_coeffs(beta1, beta2)
    assert abs(c.u1 + c.u2 - (1.0 + math.cos(beta))) <= 2e-15
    assert abs(c.v1 + c.v2 - (1.0 + coset.sinc(beta))) <= 2e-15


def test_aux_gamma_definition():
    # phi, psi1 and psi2 enter the closed tensor through gamma = phi - psi1 + psi2
    # alone: (1.1, 0.5, 0.2) gives the tensor of (0.8, 0, 0). Measured 1.4e-17 of
    # max |g|, the rounding of the unit phases
    g = closed_metric3(CosetChart3(0.5, 0.6, 0.3, 1.1, 0.3, 0.4, 0.5, 0.2)).g
    ref = closed_metric3(CosetChart3(0.5, 0.6, 0.3, 1.1 - 0.5 + 0.2, 0.3, 0.4)).g
    assert np.abs(g - ref).max() <= 1e-15 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# 3-level closed form
# ---------------------------------------------------------------------------

def test_closed_metric3_alpha_phi_zero():
    rng = make_rng(5)
    for _ in range(20):
        g = closed_metric3(random_chart3(rng))
        assert g.entry("alpha", "phi") == 0.0


def test_closed_metric3_beta2_to_zero_kills_alpha_beta1():
    base = dict(theta1=0.7, theta2=0.7, alpha=0.4, phi=0.2, beta1=1.0,
                psi1=0.3, psi2=0.8)
    for b2 in (1e-3, 1e-5):
        g = closed_metric3(CosetChart3(beta2=b2, **base))
        assert abs(g.entry("alpha", "beta1")) <= 3 * abs(b2)


def test_closed_metric3_matches_pullback_random():
    rng = make_rng(6)
    for _ in range(10):
        ch = random_chart3(rng)
        dev = np.max(np.abs(closed_metric3(ch).g - pullback_metric3(ch).g))
        assert dev <= 1e-6


def test_closed_metric3_refuses_a_gap_below_gap_at_small_theta1():
    # theta1 = 1e-4 leaves two eigenvalues near 1e-8, 5e-9 apart: below tol.GAP.
    # Small eigenvalues alone are no refusal (the sliver charts of test_reference.py)
    with pytest.raises(DegenerateSpectrum, match=r"^eigenvalue gap 5\.0\d*e-09 below"):
        closed_metric3(CosetChart3(1e-4, math.pi / 6, beta1=0.5))


def pair(offdiag_a, offdiag_b, diag=1.0):
    """A 2x2 tensor with the given off-diagonal pair."""
    return [[diag, offdiag_a], [offdiag_b, 1.0]]


@pytest.mark.filterwarnings("error")  # a float conversion of complex g warns and drops Im g
@pytest.mark.parametrize("g", [np.zeros((2, 3)), [[0.0, 1.0], [0.5, 0.0]],
                               pair(0.3, 0.3 + 2 * INVARIANT), pair(math.inf, -math.inf),
                               [[1.0, 2.0], [2.0]], np.eye(2) * (1 + 1j)],
                         ids=["2x3", "asymmetric", "twice-invariant", "opposite-infs",
                              "ragged", "complex"])
def test_metric_tensor_rejects_bad_matrix(g):
    with pytest.raises(VerificationFailure):
        MetricTensor(ordering=("a", "b"), g=g)


@pytest.mark.parametrize("g", [
    pair(0.3, 0.3),
    pair(0.3, 0.3 + INVARIANT / 2),
    pair(0.0, -0.0),
    pair(math.nan, 0.0),               # nan > INVARIANT is False: accepted
    pair(0.0, 0.0, diag=math.nan),
    pair(math.inf, math.inf),          # exactly symmetric: inf - inf is never formed
    pair(math.nan, math.nan),          # equal bytes, though nan != nan
    pair(math.nan, -math.nan),         # unequal bytes: the elementwise test decides
], ids=["exact", "half-invariant", "signed-zero", "nan-offdiag", "nan-diag", "inf-pair",
        "nan-pair", "nan-signs"])
def test_metric_tensor_symmetry_check_accepts(g):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = MetricTensor(ordering=("a", "b"), g=g)
    assert t.g.tobytes() == np.array(g).tobytes()


@pytest.mark.parametrize("a, b", [("x", "a"), ("a", "x")])
def test_metric_tensor_entry_refuses_an_unknown_coordinate(a, b):
    t = MetricTensor(ordering=("a", "b"), g=np.eye(2))
    with pytest.raises(ParseError, match="unknown coordinate 'x'"):
        t.entry(a, b)


def test_metric_tensor_symmetry_check_on_a_closed_tensor():
    # a mirrored signed zero passes; a 2 INVARIANT defect in any entry fails
    g = closed_metric3(random_chart3(make_rng(7))).g
    for i, j in ((2, 0), (7, 1)):
        mirrored = g.copy()
        mirrored[i, j] = -0.0
        assert MetricTensor(COORDS3, mirrored).g.tobytes() == mirrored.tobytes()
    for i, j in ((2, 0), (3, 2), (7, 6)):
        bad = g.copy()
        bad[i, j] += 2 * INVARIANT
        with pytest.raises(VerificationFailure):
            MetricTensor(COORDS3, bad)


def test_closed_metric3_block_structure():
    rng = make_rng(7)
    g = closed_metric3(random_chart3(rng))
    assert g.entry("theta1", "theta1") == 1.0
    for coord in COORDS3[2:]:
        assert g.entry("theta1", coord) == 0.0
        assert g.entry("theta2", coord) == 0.0


def coset_block_entries(chart, t, *, entries):
    """Reference of closed_metric3's coset block: the 21 upper-triangle
    entries keyed by coordinate pair, each formula written out inline."""
    t12, t13, t23 = t
    b1, b2 = chart.beta1, chart.beta2
    beta = chart.beta
    aux = aux_coeffs(b1, b2)
    u1, u2, v1, v2 = aux.u1, aux.u2, aux.v1, aux.v2
    w1, w2, x, y = aux.w1, aux.w2, aux.x, aux.y
    # e^{i gamma} = e^{i phi} e^{-i psi1} e^{i psi2}
    eg = cmath.rect(1.0, chart.phi) * cmath.rect(1.0, -chart.psi1) * cmath.rect(1.0, chart.psi2)
    cg, sg = eg.real, eg.imag
    s2g = 2.0 * sg * cg
    sa, ca = math.sin(chart.alpha), math.cos(chart.alpha)
    s2a, c2a = math.sin(2 * chart.alpha), math.cos(2 * chart.alpha)
    s4a = math.sin(4 * chart.alpha)
    shb = coset.sin_half_over(beta) ** 2        # (sin(beta/2)/beta)^2
    shb2 = shb * shb
    snb = coset.sinc(beta)                      # sin(beta)/beta
    snb2 = snb * snb

    phi_b1_gamma = sg if entries == "validated" else 1.0

    e = {}
    e[("alpha", "alpha")] = -t12
    e[("alpha", "phi")] = 0.0
    e[("alpha", "beta1")] = 2.0 * t12 * b2 * cg * shb
    e[("alpha", "beta2")] = -2.0 * t12 * b1 * cg * shb
    e[("alpha", "psi1")] = 2.0 * t12 * b1 * b2 * u2 * sg * shb
    e[("alpha", "psi2")] = 2.0 * t12 * b1 * b2 * u1 * sg * shb
    e[("phi", "phi")] = -0.25 * t12 * s2a ** 2
    e[("phi", "beta1")] = -0.5 * t12 * b2 * s4a * phi_b1_gamma * shb
    e[("phi", "beta2")] = 0.5 * t12 * b1 * s4a * phi_b1_gamma * shb
    e[("phi", "psi1")] = (0.5 * t12 * b1 * s2a
                          * (b1 * w2 * s2a + 2.0 * b2 * u2 * c2a * cg) * shb)
    e[("phi", "psi2")] = (-0.5 * t12 * b2 * s2a
                          * (b2 * w1 * s2a - 2.0 * b1 * u1 * c2a * cg) * shb)
    e[("beta1", "beta1")] = (
        -4.0 * t12 * b2 ** 2 * (1.0 - s2a ** 2 * sg ** 2) * shb2
        - t13 * (x ** 2 * sa ** 2 + v1 ** 2 * ca ** 2 - x * v1 * s2a * cg)
        - t23 * (x ** 2 * ca ** 2 + v1 ** 2 * sa ** 2 + x * v1 * s2a * cg))
    e[("beta1", "beta2")] = (
        4.0 * t12 * b1 * b2 * (1.0 - s2a ** 2 * sg ** 2) * shb2
        - t13 * (x * (v1 * ca ** 2 + v2 * sa ** 2)
                 - 0.5 * (v1 * v2 + x ** 2) * s2a * cg)
        - t23 * (x * (v1 * sa ** 2 + v2 * ca ** 2)
                 + 0.5 * (v1 * v2 + x ** 2) * s2a * cg))
    e[("beta1", "psi1")] = (
        -t12 * b1 * b2 * (2.0 * b2 * u2 * s2a ** 2 * s2g - b1 * w2 * s4a * sg) * shb2
        + 0.5 * (t13 - t23) * b1 * s2a * sg * (u2 * x + v1 * y) * snb)
    e[("beta1", "psi2")] = (
        -t12 * b2 ** 2 * (2.0 * b1 * u1 * s2a ** 2 * s2g + b2 * w1 * s4a * sg) * shb2
        - 0.5 * (t13 - t23) * b2 * s2a * sg * (u1 * v1 + x * y) * snb)
    e[("beta2", "beta2")] = (
        -4.0 * t12 * b1 ** 2 * (1.0 - s2a ** 2 * sg ** 2) * shb2
        - t13 * (x ** 2 * ca ** 2 + v2 ** 2 * sa ** 2 - x * v2 * s2a * cg)
        - t23 * (x ** 2 * sa ** 2 + v2 ** 2 * ca ** 2 + x * v2 * s2a * cg))
    e[("beta2", "psi1")] = (
        t12 * b1 ** 2 * (2.0 * b2 * u2 * s2a ** 2 * s2g - b1 * w2 * s4a * sg) * shb2
        + 0.5 * (t13 - t23) * b1 * s2a * sg * (u2 * v2 + x * y) * snb)
    e[("beta2", "psi2")] = (
        t12 * b1 * b2 * (2.0 * b1 * u1 * s2a ** 2 * s2g + b2 * w1 * s4a * sg) * shb2
        - 0.5 * (t13 - t23) * b2 * s2a * sg * (u1 * x + v2 * y) * snb)
    e[("psi1", "psi1")] = (
        -t12 * b1 ** 2 * (4.0 * b2 ** 2 * u2 ** 2 * (1.0 - s2a ** 2 * cg ** 2)
                          + b1 ** 2 * w2 ** 2 * s2a ** 2
                          + 2.0 * b1 * b2 * u2 * w2 * s4a * cg) * shb2
        - t13 * b1 ** 2 * (u2 ** 2 * ca ** 2 + y ** 2 * sa ** 2
                           + u2 * y * s2a * cg) * snb2
        - t23 * b1 ** 2 * (u2 ** 2 * sa ** 2 + y ** 2 * ca ** 2
                           - u2 * y * s2a * cg) * snb2)
    e[("psi1", "psi2")] = (
        -t12 * b1 * b2 * (4.0 * b1 * b2 * u1 * u2 * (1.0 - s2a ** 2 * cg ** 2)
                          - b1 * b2 * w1 * w2 * s2a ** 2
                          - s4a * cg * (b2 ** 2 * u2 * w1 - b1 ** 2 * u1 * w2)) * shb2
        + t13 * b1 * b2 * (y * (u1 * sa ** 2 + u2 * ca ** 2)
                           + 0.5 * s2a * cg * (u1 * u2 + y ** 2)) * snb2
        + t23 * b1 * b2 * (y * (u1 * ca ** 2 + u2 * sa ** 2)
                           - 0.5 * s2a * cg * (u1 * u2 + y ** 2)) * snb2)
    e[("psi2", "psi2")] = (
        -t12 * b2 ** 2 * (4.0 * b1 ** 2 * u1 ** 2 * (1.0 - s2a ** 2 * cg ** 2)
                          + b2 ** 2 * w1 ** 2 * s2a ** 2
                          - 2.0 * b1 * b2 * u1 * w1 * s4a * cg) * shb2
        - t13 * b2 ** 2 * (u1 ** 2 * sa ** 2 + y ** 2 * ca ** 2
                           + u1 * y * s2a * cg) * snb2
        - t23 * b2 ** 2 * (u1 ** 2 * ca ** 2 + y ** 2 * sa ** 2
                           - u1 * y * s2a * cg) * snb2)
    return e


def scattered_tensor(ch, entries):
    """The closed tensor scattered into zeros from the reference entries: the
    eigenvalue block, then each coset entry at (i, j) and (j, i)."""
    index = {name: k for k, name in enumerate(COORDS3)}
    e = coset_block_entries(ch, t_coeffs(ch.theta1, ch.theta2), entries=entries)
    assert len(e) == 21  # the whole upper triangle of the 6x6 coset block
    g = np.zeros((8, 8))
    g[0, 0] = 1.0
    g[1, 1] = math.sin(ch.theta1) ** 2
    for (a, b), val in e.items():
        g[index[a], index[b]] = g[index[b], index[a]] = val
    return g


def edge_charts3():
    """Charts on the closed form's branches: beta of 5e-5 and 1.4e-9,
    beta1 = +-1e-300 (beta^2 underflows), alpha = +-0 and sin(gamma) = 0."""
    out = []
    for theta1, theta2 in ((0.6, 0.68), (0.9, 0.75)):
        for b1, b2 in ((1e-300, 0.5), (-1e-300, 0.5), (1e-300, 0.0), (-1e-300, -0.0),
                       (3e-5, -4e-5), (1e-9, 1e-9), (-0.0, 5e-5), (0.3, -1.2)):
            for alpha in (0.0, -0.0, 1e-13, 0.4):
                for phi, psi1, psi2 in ((0.0, 0.0, 0.0), (-0.0, 0.0, -0.0),
                                        (0.0, 0.5, 0.5), (1.1, 0.3, 0.7)):
                    out.append(CosetChart3(theta1, theta2, alpha, phi, b1, b2, psi1, psi2))
    return out


@pytest.mark.parametrize("entries", ["validated", "printed"])
def test_closed_metric3_places_coset_entries_bit_for_bit(entries):
    rng = make_rng(19)
    charts = [random_chart3(rng) for _ in range(500)] + edge_charts3()
    for ch in charts:
        g = closed_metric3(ch, entries=entries).g
        assert g.tobytes() == scattered_tensor(ch, entries).tobytes(), ch
        assert g[0, 0] == 1.0 and g[0, 1] == g[1, 0] == 0.0
        assert g[1, 1] == math.sin(ch.theta1) ** 2
        assert not g[:2, 2:].any() and not g[2:, :2].any()


@pytest.mark.parametrize("coords, name", [
    (dict(alpha=1e308), "alpha"),
    (dict(alpha=5e307), "alpha"),          # 2 alpha is finite, 4 alpha is not
])
def test_closed_metric3_refuses_angles_whose_multiples_overflow(coords, name):
    ch = CosetChart3(0.5, 0.6, beta1=0.3, **{"alpha": 0.4, **coords})
    for entries in ("validated", "printed"):
        with pytest.raises(OutOfChartRange, match="overflows") as exc:
            closed_metric3(ch, entries=entries)
        assert exc.value.coordinate == name


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NEAR_BETA = st.one_of(st.floats(-3.2, 3.2), FINITE)


@pytest.mark.filterwarnings("error")
@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(theta1=st.floats(0.0, THETA1_MAX), theta2=st.floats(THETA2_MIN, THETA2_MAX),
       alpha=FINITE, phi=FINITE, beta1=NEAR_BETA, beta2=NEAR_BETA, psi1=FINITE, psi2=FINITE)
def test_closed_metric3_gives_a_finite_symmetric_tensor_or_a_typed_error(
        theta1, theta2, alpha, phi, beta1, beta2, psi1, psi2):
    # over every chart CosetChart3 accepts: the only refusals are beta outside
    # (0, pi), a degenerate spectrum and an overflowing 4 alpha
    try:
        g = closed_metric3(CosetChart3(theta1, theta2, alpha, phi, beta1, beta2, psi1, psi2)).g
    except OutOfChartRange as exc:
        assert exc.coordinate in ("beta", "alpha"), exc
        return
    except DegenerateSpectrum:
        return
    assert np.isfinite(g).all()
    assert g.tobytes() == g.T.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("phi, psi1, psi2", [
    (1e308, 0.0, 1e308),      # gamma = phi - psi1 + psi2 overflows as a float
    (1e308, 0.0, 0.0),        # 2 gamma overflows as a float
    (0.0, -1e308, 1e308),
    (-1.7e308, 1.7e308, 0.3),
])
def test_closed_metric3_has_a_tensor_at_every_finite_gamma(phi, psi1, psi2):
    # gamma is read as the product of three unit phases, never as a float, so no
    # finite phi, psi1 or psi2 is refused: the tensor is the one at the reduced angles
    ch = CosetChart3(0.5, 0.6, 0.4, phi, 0.3, 0.0, psi1, psi2)
    e = cmath.rect(1.0, phi) * cmath.rect(1.0, -psi1) * cmath.rect(1.0, psi2)
    near = CosetChart3(0.5, 0.6, 0.4, cmath.phase(e), 0.3, 0.0)
    for entries in ("validated", "printed"):
        g, ref = closed_metric3(ch, entries=entries).g, closed_metric3(near, entries=entries).g
        assert np.isfinite(g).all()
        assert np.abs(g - ref).max() <= 1e-15 * np.abs(ref).max()


def test_closed_forms_stay_finite_below_the_overflow():
    g3 = closed_metric3(CosetChart3(0.5, 0.6, 4e307, 4e307, 0.3, 0.0, 0.0, 4e307)).g
    g2 = closed_metric2(CosetChart2(0.3, 8e307)).g
    assert np.isfinite(g3).all() and np.isfinite(g2).all()


@pytest.mark.parametrize("beta1, beta2, normal", [
    (5e-324, 5e-324, (1e-300, 1e-300)),
    (3e-321, 3e-321, (1e-300, 1e-300)),
    (1e-320, 1e-320, (1e-300, 1e-300)),
    (3 * 5e-324, -7 * 5e-324, (0.3e-300, -0.7e-300)),
    (0.0, 5e-324, (0.0, 1e-300)),
])
def test_closed_tensor_at_a_subnormal_beta_matches_a_tiny_normal_one(beta1, beta2, normal):
    # hypot rounds a subnormal beta coarsely (hypot(5e-324, 5e-324) == 5e-324), so
    # the direction comes from components scaled exactly by a power of two
    def closed(b1, b2):
        return closed_metric3(CosetChart3(0.5, 0.6, 0.3, 0.4, b1, b2, 0.1, 0.7)).g
    sub, ref = closed(beta1, beta2), closed(*normal)
    assert np.abs(sub - ref).max() <= 1e-15 * np.abs(ref).max()
    c = aux_coeffs(beta1, beta2)
    assert [c.u1 + c.u2, c.v1 + c.v2, c.w1 + c.w2] == pytest.approx([2.0, 2.0, 4.0], abs=1e-15)


@pytest.mark.parametrize("args, name", [
    ((math.nan, 0.3), "beta"),
    ((0.3, -math.inf), "beta"),
    ((math.inf, math.nan), "beta"),
    ((1e308, 1e308), "beta"),     # finite, but beta^2 overflows
    ((1e200, 0.0), "beta"),
])
def test_aux_coeffs_refuses_input_without_finite_coefficients(args, name):
    with pytest.raises(OutOfChartRange) as exc:
        aux_coeffs(*args)
    assert exc.value.coordinate == name


@pytest.mark.parametrize("n, coord, value", [
    (3, "alpha", 1e300), (3, "phi", 1e300), (3, "psi1", -1e300), (3, "psi2", 1e300),
    (3, "phi", 2.0 ** 37),     # the smallest |x| where x + DEFAULT_STEP == x
    (2, "alpha", 1e100), (2, "phi", -2.0 ** 37),
])
def test_pullback_refuses_a_coordinate_that_a_step_leaves_unchanged(n, coord, value):
    chart = (CosetChart3(0.5, 0.6, beta1=0.4, **{coord: value}) if n == 3
             else CosetChart2(0.3, **{coord: value}))
    with pytest.raises(OutOfChartRange, match="a step of 1e-05 leaves it unchanged") as exc:
        metric.FAMILIES[n].pullback(chart)
    assert exc.value.coordinate == coord
    if abs(value) == 2.0 ** 37:  # one ulp inside, both steps move the coordinate
        chart = dataclasses.replace(chart, **{coord: math.nextafter(value, 0.0)})
        assert np.isfinite(metric.FAMILIES[n].pullback(chart).g).all()


def test_closed_metric2_refuses_alpha_whose_double_overflows():
    with pytest.raises(OutOfChartRange, match="overflows") as exc:
        closed_metric2(CosetChart2(0.3, -1e308))
    assert exc.value.coordinate == "alpha"


def test_closed_metric3_gamma_invariance():
    rng = make_rng(8)
    for _ in range(10):
        ch = random_chart3(rng)
        base = closed_metric3(ch).g
        for (a, b) in ((0.5, 0.0), (0.0, -0.3), (1.1, 0.7)):
            shifted = CosetChart3(ch.theta1, ch.theta2, ch.alpha, ch.phi + a + b,
                                  ch.beta1, ch.beta2, ch.psi1 + a, ch.psi2 - b)
            assert np.max(np.abs(closed_metric3(shifted).g - base)) <= 1e-12


def test_closed_metric3_factorized_dependence():
    # every coset entry is a linear combination of (t12, t13, t23) with
    # coefficients depending only on the coset parameters: fitting the 3
    # coefficients from 10 eigenvalue points must be exact
    rng = make_rng(9)
    ch0 = random_chart3(rng)
    thetas = [(random_chart3(rng).theta1, random_chart3(rng).theta2) for _ in range(10)]
    tensors, tvals = [], []
    for (t1, t2) in thetas:
        ch = CosetChart3(t1, t2, ch0.alpha, ch0.phi, ch0.beta1, ch0.beta2,
                         ch0.psi1, ch0.psi2)
        tensors.append(closed_metric3(ch).g)
        tvals.append(t_coeffs(t1, t2))
    tmat = np.asarray(tvals)
    for i in range(2, 8):
        for j in range(i, 8):
            v = np.array([g[i, j] for g in tensors])
            coeff, res, *_ = np.linalg.lstsq(tmat, v, rcond=None)
            predicted = tmat @ coeff
            assert np.max(np.abs(predicted - v)) <= 1e-10 * max(1.0, np.max(np.abs(v)))


def test_closed_metric3_psd_interior():
    rng = make_rng(10)
    for _ in range(20):
        g = closed_metric3(random_chart3(rng))
        assert np.linalg.eigvalsh(g.g).min() >= -1e-8


def test_both_tensors_psd_interior():
    rng = make_rng(21)
    for _ in range(5):
        ch2 = random_chart2(rng)
        assert np.linalg.eigvalsh(pullback_metric2(ch2).g).min() >= -1e-8
        assert np.linalg.eigvalsh(closed_metric2(ch2).g).min() >= -1e-8
        ch3 = random_chart3(rng)
        assert np.linalg.eigvalsh(pullback_metric3(ch3).g).min() >= -1e-8


def test_closed_metric3_guards():
    with pytest.raises(OutOfChartRange):
        closed_metric3(CosetChart3(0.7, 0.7))  # beta = 0
    with pytest.raises(DegenerateSpectrum):
        closed_metric3(CosetChart3(THETA1_MAX, math.pi / 4, beta1=0.5))


def test_closed_metric3_unknown_entry_convention():
    with pytest.raises(ValueError, match="bogus"):
        closed_metric3(random_chart3(make_rng(11)), entries="bogus")


def test_closed_metric3_printed_variant_differs_only_in_phi_beta():
    rng = make_rng(11)
    ch = random_chart3(rng)
    val = closed_metric3(ch).g
    pri = closed_metric3(ch, entries="printed").g
    diff = np.abs(val - pri)
    idx = {name: k for k, name in enumerate(COORDS3)}
    mask = np.zeros_like(diff, dtype=bool)
    for (a, b) in (("phi", "beta1"), ("phi", "beta2")):
        mask[idx[a], idx[b]] = mask[idx[b], idx[a]] = True
    assert np.max(diff[~mask]) == 0.0
    assert np.max(diff[mask]) > 0.0


# ---------------------------------------------------------------------------
# volume element and validation report
# ---------------------------------------------------------------------------

def test_volume_element_2level_formula():
    for (theta, alpha) in [(0.2, 0.4), (0.5, 1.0), (0.7, 2.2)]:
        g = closed_metric2(CosetChart2(theta, alpha, 0.3))
        expected = 0.5 * abs(math.sin(2 * alpha)) * math.cos(2 * theta) ** 2
        assert volume_element(g) == pytest.approx(expected, rel=1e-10)


def test_volume_element_degenerate_point():
    g = closed_metric2(CosetChart2(math.pi / 4 - 1e-9, 0.4, 0.1))
    assert volume_element(g) <= 1e-10


def test_volume_element_clamps_negative_det():
    g = MetricTensor(ordering=("a", "b"), g=np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert volume_element(g) == 0.0  # det = -3 clamps to 0


def test_volume_element_of_a_singular_tensor_is_plus_zero():
    # det g rounds to -0.0 at the first chart; at the second the tensor is
    # exactly singular, where LAPACK's det divides by zero
    charts = (CosetChart3(0.6, 0.68, 0.3, 0.4, 1e-300, 0.5, 0.1, 0.7),
              CosetChart3(0.6, 0.68, 1e-05, 1.1, 1e-300, 5e-05, 1.1, -1.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ch in charts:
            rep = validate(ch)
            for vol in (rep.volume_closed, rep.volume_pullback):
                assert vol == 0.0 and math.copysign(1.0, vol) == 1.0, ch


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, 1e200])
def test_volume_element_of_a_tensor_whose_det_is_not_finite_is_refused(entry):
    g = MetricTensor(ordering=("a", "b"), g=np.array([[entry, 0.0], [0.0, entry]]))
    with pytest.raises(VerificationFailure, match="is not finite"):
        volume_element(g)


def bures_density(lam) -> float:
    """P_B(lambda) = (prod lambda_i)^{-1/2} prod_{i<j} (lambda_i - lambda_j)^2/(lambda_i + lambda_j),
    the Bures eigenvalue density (Hall 1998; Sommers and Zyczkowski 2003)."""
    out = 1.0 / math.sqrt(math.prod(lam))
    for i, a in enumerate(lam):
        for b in lam[i + 1:]:
            out *= (a - b) ** 2 / (a + b)
    return out


def test_closed_volume_element_2level_is_the_bures_eigenvalue_density():
    # |J| = sin 2 theta is the Jacobian of lambda_0 = cos^2 theta, and the
    # coset factor is |sin 2 alpha| / 4
    rng = make_rng(32)
    for _ in range(200):
        ch = random_chart2(rng)
        lam = (math.cos(ch.theta) ** 2, math.sin(ch.theta) ** 2)
        ratio = volume_element(closed_metric2(ch)) / (bures_density(lam) * math.sin(2 * ch.theta))
        assert ratio == pytest.approx(0.25 * abs(math.sin(2 * ch.alpha)), rel=1e-13, abs=0.0)


def test_closed_volume_element_3level_is_the_bures_eigenvalue_density():
    # sqrt(det g) = P_B(lambda) |J(theta)| H(coset), where
    # |J| = sin 2 theta1 sin^2 theta1 sin 2 theta2 is the Jacobian of
    # (lambda_0, lambda_1) in (theta1, theta2): at fixed coset coordinates the
    # ratio does not depend on theta. beta is scaled below 1.4, away from the
    # zero of H at beta = pi/2, where g is ill-conditioned
    rng = make_rng(31)
    worst = 0.0
    for _ in range(200):
        c = random_chart3(rng)
        s = 1.4 / math.pi
        coords = (c.alpha, c.phi, c.beta1 * s, c.beta2 * s, c.psi1, c.psi2)
        ratios = []
        for _ in range(5):
            t = random_chart3(rng)  # only its thetas, which keep the spectrum's gaps
            t1, t2 = t.theta1, t.theta2
            jac = math.sin(2 * t1) * math.sin(t1) ** 2 * math.sin(2 * t2)
            g = closed_metric3(CosetChart3(t1, t2, *coords))
            ratios.append(volume_element(g) / (bures_density(coset.diag_entries3(t1, t2)) * jac))
        assert min(ratios) > 0.0
        worst = max(worst, (max(ratios) - min(ratios)) / max(ratios))
    assert worst <= 1e-9


def gauss_legendre(n: int, lo: float, hi: float) -> list[tuple[float, float]]:
    """(node, weight) pairs of the n-point Gauss-Legendre rule on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return list(zip((half * x + (lo + half)).tolist(), (half * w).tolist()))


def test_bures_volume_of_the_2level_states_from_the_closed_tensor():
    # sqrt(det g) = (1/2) |sin 2 alpha| cos^2 2 theta, free of phi; theta in
    # [0, pi/4], alpha in [0, pi/2] and phi over one period cover each state
    # once, so the volume is (pi/8) (1/2) (2 pi) = pi^2/8
    rule = gauss_legendre(8, 0.0, math.pi / 4), gauss_legendre(8, 0.0, math.pi / 2)
    vol = 2 * math.pi * sum(wt * wa * volume_element(closed_metric2(CosetChart2(theta, alpha)))
                            for theta, wt in rule[0] for alpha, wa in rule[1])
    assert vol == pytest.approx(math.pi ** 2 / 8, rel=1e-12, abs=0.0)


def test_bures_volume_of_the_3level_states_from_the_closed_tensor():
    # sqrt(det g) = P_B(lambda) |J(theta)| H(coset) (the test above), so the
    # volume is the coset integral of H times the integral of P_B over the
    # ordered eigenvalues, 1/3! of Z, its integral over the whole simplex.
    # Sommers and Zyczkowski (2003): V3 = 2^-8 pi^(9/2) / Gamma(9/2).
    t1, t2 = 0.6, 0.68
    jac = math.sin(2 * t1) * math.sin(t1) ** 2 * math.sin(2 * t2)
    scale = bures_density(coset.diag_entries3(t1, t2)) * jac
    # H over one copy of the flag manifold: beta1, beta2 >= 0 with beta <= pi/2
    # (beta < pi covers it twice), in polar (beta, chi); alpha in [0, pi/2];
    # gamma = phi - psi1 + psi2 over one period as phi, and psi1, psi2,
    # which H does not see, give (2 pi)^2. 8^4 nodes: 14^4 give the same
    quarter, period = gauss_legendre(8, 0.0, math.pi / 2), gauss_legendre(8, 0.0, 2 * math.pi)
    h = 0.0
    for beta, wb in quarter:
        for chi, wc in quarter:
            b1, b2 = beta * math.cos(chi), beta * math.sin(chi)
            for alpha, wa in quarter:
                for gamma, wg in period:
                    g = closed_metric3(CosetChart3(t1, t2, alpha, gamma, b1, b2))
                    h += wb * wc * wa * wg * beta * volume_element(g)
    h *= (2 * math.pi) ** 2 / scale
    assert h == pytest.approx(3.87578458503747, rel=1e-12, abs=0.0)
    # P_B |J| over the ordered chamber lambda_0 >= lambda_1 >= lambda_2, that is
    # theta2 in [0, pi/4] and tan theta1 <= 1/cos theta2, where it is smooth
    ordered = 0.0
    for theta2, w2 in gauss_legendre(16, 0.0, math.pi / 4):
        for theta1, w1 in gauss_legendre(16, 0.0, math.atan(1.0 / math.cos(theta2))):
            jac = math.sin(2 * theta1) * math.sin(theta1) ** 2 * math.sin(2 * theta2)
            ordered += w2 * w1 * bures_density(coset.diag_entries3(theta1, theta2)) * jac
    z = math.factorial(3) * ordered
    assert z == pytest.approx(0.0897597901026, rel=1e-12, abs=0.0)
    v3 = 2.0 ** -8 * math.pi ** 4.5 / math.gamma(4.5)
    assert h * z / math.factorial(3) == pytest.approx(v3, rel=1e-12, abs=0.0)


def test_volume_3level_closed_vs_pullback():
    rng = make_rng(12)
    for _ in range(5):
        ch = random_chart3(rng)
        vc = volume_element(closed_metric3(ch))
        vp = volume_element(pullback_metric3(ch))
        assert vp == pytest.approx(vc, rel=1e-4)


def test_validate_report_2level():
    rep = validate(CosetChart2(0.4, 0.9, 1.3))
    assert rep.n == 2
    assert rep.max_abs_dev <= 1e-7
    assert rep.dittmann_max_rel_dev <= 1e-9
    assert rep.s_coeff_relation_dev <= 1e-12
    d = rep.to_dict()
    assert d["dittmann_reading"] == "printed"
    assert set(d["entry_abs_dev"]) == {f"g_{a}_{b}" for i, a in enumerate(COORDS2)
                                       for b in COORDS2[i:]}


def test_validate_report_3level():
    rng = make_rng(13)
    rep = validate(random_chart3(rng))
    assert rep.n == 3
    assert rep.max_abs_dev <= 1e-6
    assert rep.gamma_shift_dev <= 1e-12
    assert rep.dittmann_max_rel_dev <= 1e-9
    assert rep.printed_entry_dev["g_phi_beta1"] >= 0.0
    table = rep.t_coeff_table
    assert {"t12", "t13", "t23"} == set(table)
    assert table["t12"]["printed_theta_dev"] > 0.0
    # serializes cleanly
    json.dumps(rep.to_dict())


@pytest.mark.parametrize("phi", [1e9, 3e10, 1e11])
def test_validate_at_a_huge_phi_measures_the_tensor_not_the_rounding_of_phi(phi):
    # gamma is never formed as a float, and the gamma shifts keep it to the rounding
    # of the small angles: gamma_shift_dev measured <= 2.8e-17 (a 36x margin) and
    # max_abs_dev <= 1.4e-10, the pullback's difference noise (a 7x margin). Forming
    # gamma as a float puts max_abs_dev at 2.2e-9, 3.4e-7 and 1.32e-6 here
    rep = validate(CosetChart3(0.5, 0.6, 0.3, phi, 0.4, 0.0, 0.1, 0.2))
    assert rep.gamma_shift_dev <= 1e-15
    assert rep.max_abs_dev <= 1e-9


# SHA-256 of json.dumps(validate(chart).to_dict()): every key, its order and
# every value to the last bit. Recorded with numpy 2.x on x86-64 Linux.
VALIDATE_DIGESTS = {
    "n2": (CosetChart2(0.4, 0.9, 1.3),
           "95628d82b3374fd93c8480bf4e860c9812bf6e2296a6c5fffb67d9de39a78231"),
    "n3": (CosetChart3(0.6, 0.68, 0.3, 0.4, 0.9, 0.5, 0.1, 0.7),
           "0efaf8d0ac8666a7d2470df4937ace7194f11fa77ac6d290863520c8b649d1c2"),
}


@pytest.mark.parametrize("chart,digest", VALIDATE_DIGESTS.values(), ids=VALIDATE_DIGESTS)
def test_validate_report_bytes_pinned(chart, digest):
    text = json.dumps(validate(chart).to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_validate_skips_a_vanishing_tangent(monkeypatch):
    # at beta1 = 0 the psi1 tangent is exactly 0: the Dittmann check skips it
    # (tol.TANGENT_FLOOR) and compares the other seven tangents
    from buresgeo import bures
    chart = CosetChart3(0.6, 0.68, 0.3, 0.4, 0.0, 0.9, 0.1, 0.7)
    fam = metric.FAMILIES[3]
    psi1 = metric._central_diff(fam.build, np.asarray(chart.values()), COORDS3.index("psi1"))
    assert not psi1.any()
    calls = []
    form = bures.dittmann3_form
    monkeypatch.setattr(bures, "dittmann3_form", lambda rho, t: calls.append(t) or form(rho, t))
    rep = validate(chart)
    assert len(calls) == 7
    assert rep.dittmann_max_rel_dev <= 1e-12


def numpy_rel_dev(a, b):
    """metric._rel_dev as it read with the mask scale >= REL_DEV_FLOOR."""
    scale = np.maximum(np.abs(a), np.abs(b))
    mask = scale >= REL_DEV_FLOOR
    return float(np.max(np.abs(a - b)[mask] / scale[mask]))


def seeded_tensor_pairs():
    """(pullback, closed) of seeded validate points, then seeded 8 x 8 pairs
    with entries planted exactly at REL_DEV_FLOOR, just below it and at 0."""
    rng = make_rng(32)
    for _ in range(40):
        rep = validate(random_chart3(rng) if rng.random() < 0.75 else random_chart2(rng))
        yield rep.pullback, rep.closed
    for _ in range(500):
        a = rng.normal(size=(8, 8))
        b = a + 1e-9 * rng.normal(size=(8, 8))
        for m in (a, b):
            m[rng.random(size=(8, 8)) < 0.3] = REL_DEV_FLOOR
            m[rng.random(size=(8, 8)) < 0.1] = math.nextafter(REL_DEV_FLOOR, 0.0)
            m[rng.random(size=(8, 8)) < 0.1] = 0.0
        yield a, b


def test_rel_dev_matches_the_mask_on_seeded_pairs():
    for a, b in seeded_tensor_pairs():
        assert metric._rel_dev(a, b).hex() == numpy_rel_dev(a, b).hex()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("at", [(0, 1), (3, 3)])
@pytest.mark.parametrize("side", [0, 1])
def test_rel_dev_carries_a_nan_entry(at, side):
    # a nan scale failed the mask and its entry was dropped
    pair = [np.eye(4) + 0.5, np.eye(4) + 0.5]
    pair[side][at] = math.nan
    assert math.isnan(metric._rel_dev(*pair))


@pytest.mark.parametrize("x,y,want", [
    (0.0, math.nan, math.nan), (math.nan, 0.0, math.nan), (math.nan, math.nan, math.nan),
    (1.0, 2.0, 2.0), (2.0, 1.0, 2.0), (0.0, -0.0, 0.0), (-0.0, 0.0, -0.0), (0.0, math.inf, math.inf),
])
def test_max_or_nan_keeps_a_nan_and_the_first_of_a_tie(x, y, want):
    got = metric._max_or_nan(x, y)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got.hex() == want.hex()


@pytest.mark.parametrize("chart", [CosetChart2(0.4, 0.9, 1.3),
                                   CosetChart3(0.6, 0.68, 0.3, 0.4, 0.9, 0.5, 0.1, 0.7)],
                         ids=["n2", "n3"])
@pytest.mark.parametrize("at", [0, -1])
def test_validate_carries_a_nan_dittmann_deviation(chart, at, monkeypatch):
    # max(dmax, nan) kept dmax: a nan trace form read as agreement
    from buresgeo import bures
    name = "dittmann2_form" if isinstance(chart, CosetChart2) else "dittmann3_form"
    form, calls = getattr(bures, name), []
    nan_call = at % len(chart.values())  # the first or the last tangent

    def nan_at_one_tangent(rho, t):
        calls.append(t)
        return math.nan if len(calls) - 1 == nan_call else form(rho, t)

    monkeypatch.setattr(bures, name, nan_at_one_tangent)
    assert math.isnan(validate(chart).dittmann_max_rel_dev)


def test_every_family_route_names_a_public_function():
    # a misspelled path would fail only on its route's first call
    for fam in metric.FAMILIES.values():
        routes = {f.name: getattr(fam, f.name).path for f in dataclasses.fields(fam)
                  if hasattr(getattr(fam, f.name), "path")}
        assert set(routes) == {"rho", "closed", "pullback", "sample", "dittmann", "find"}
        for path in routes.values():
            module, name = path.split(".")
            fn = getattr(importlib.import_module(f"buresgeo.{module}"), name, None)
            assert inspect.isfunction(fn) and not name.startswith("_"), path
            assert fn.__module__ == f"buresgeo.{module}", path


def test_validate_rejects_non_chart():
    with pytest.raises(TypeError):
        validate(object())
