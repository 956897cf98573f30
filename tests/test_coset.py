import cmath
import math
import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buresgeo import coset, matcore
from buresgeo.coset import (
    CosetChart2,
    CosetChart3,
    THETA1_MAX,
    THETA2_MAX,
    THETA2_MIN,
    THETA_MAX,
    diag2,
    diag3,
    omega2,
    omega3,
    permutation_table,
    rho2,
    rho3,
)
from buresgeo.errors import InvalidDensityMatrix, OutOfChartRange
from buresgeo.sampling import make_rng, random_chart2, random_chart3, random_unitary
from buresgeo.tol import INVARIANT, RANGE_EPS


def omega3_upper_printed(b1, b2, p1, p2):
    """Independent oracle: the 3x3 upper coset block written out entrywise."""
    beta = math.hypot(b1, b2)
    cb, sb = math.cos(beta), math.sin(beta)
    e1, e2 = np.exp(1j * p1), np.exp(1j * p2)
    return np.array([
        [1 + (b1 ** 2 / beta ** 2) * (cb - 1),
         (b1 * b2 / beta ** 2) * np.exp(1j * (p1 - p2)) * (cb - 1),
         (b1 / beta) * e1 * sb],
        [(b1 * b2 / beta ** 2) * np.exp(-1j * (p1 - p2)) * (cb - 1),
         1 + (b2 ** 2 / beta ** 2) * (cb - 1),
         (b2 / beta) * e2 * sb],
        [-(b1 / beta) * np.conj(e1) * sb,
         -(b2 / beta) * np.conj(e2) * sb,
         cb]], dtype=complex)


# ---------------------------------------------------------------------------
# 2-level pieces
# ---------------------------------------------------------------------------

def test_omega2_identity_at_alpha_zero():
    np.testing.assert_allclose(omega2(CosetChart2(0.1, 0.0, 0.7)), np.eye(2), atol=1e-15)


def test_omega2_transposition_up_to_phase():
    om = omega2(CosetChart2(0.1, math.pi / 2, math.pi / 2))
    np.testing.assert_allclose(om, np.array([[0, 1j], [1j, 0]]), atol=1e-15)


def test_omega2_direct_trig():
    om = omega2(CosetChart2(0.1, math.pi / 3, 0.0))
    expected = np.array([[0.5, math.sqrt(3) / 2], [-math.sqrt(3) / 2, 0.5]])
    np.testing.assert_allclose(om, expected, atol=1e-15)


def test_omega2_unitary_random():
    rng = make_rng(2)
    for _ in range(200):
        om = omega2(random_chart2(rng))
        np.testing.assert_allclose(om.conj().T @ om, np.eye(2), atol=1e-12)


def test_diag2_examples():
    np.testing.assert_allclose(diag2(0.0).mat, np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(diag2(math.pi / 4).mat, np.eye(2) / 2, atol=1e-15)
    np.testing.assert_allclose(diag2(math.pi / 6).mat, np.diag([0.75, 0.25]), atol=1e-15)


def test_diag2_range_error():
    with pytest.raises(OutOfChartRange):
        diag2(1.0)


def test_rho2_maximally_mixed_fixed_point():
    for alpha, phi in [(0.3, 1.2), (2.0, -0.4)]:
        r = rho2(CosetChart2(math.pi / 4, alpha, phi))
        np.testing.assert_allclose(r.mat, np.eye(2) / 2, atol=1e-14)


def test_rho2_pure_state():
    np.testing.assert_allclose(rho2(CosetChart2(0.0, 0.0, 0.0)).mat,
                               np.diag([1.0, 0.0]), atol=1e-15)


def test_rho2_explicit_substitution():
    r = rho2(CosetChart2(0.0, math.pi / 4, 0.0))
    np.testing.assert_allclose(r.mat, np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-14)


def test_rho2_entry_formulas_random():
    # diagonal: sin^2 a sin^2 t + cos^2 a cos^2 t etc.;
    # off-diagonal: -(1/2) e^{i phi} sin 2a cos 2t
    rng = make_rng(3)
    for _ in range(100):
        ch = random_chart2(rng)
        r = rho2(ch).mat
        st, ct = math.sin(ch.theta), math.cos(ch.theta)
        sa, ca = math.sin(ch.alpha), math.cos(ch.alpha)
        d1 = sa ** 2 * st ** 2 + ca ** 2 * ct ** 2
        d2 = sa ** 2 * ct ** 2 + ca ** 2 * st ** 2
        off = -0.5 * np.exp(1j * ch.phi) * math.sin(2 * ch.alpha) * math.cos(2 * ch.theta)
        np.testing.assert_allclose(r[0, 0], d1, atol=1e-13)
        np.testing.assert_allclose(r[1, 1], d2, atol=1e-13)
        np.testing.assert_allclose(r[0, 1], off, atol=1e-13)


# ---------------------------------------------------------------------------
# the coset blocks of omega3
# ---------------------------------------------------------------------------

def upper_block(b1, b2, p1, p2):
    """The k=3 block alone: omega3 with alpha = phi = 0 (theta does not enter Omega)."""
    return omega3(CosetChart3(0.0, coset.THETA2_MIN, 0.0, 0.0, b1, b2, p1, p2))


def test_omega_block_matches_printed_display():
    rng = make_rng(4)
    for _ in range(1000):
        beta = rng.uniform(1e-3, math.pi - 1e-3)
        chi = rng.uniform(0, 2 * math.pi)
        b1, b2 = beta * math.cos(chi), beta * math.sin(chi)
        p1, p2 = rng.uniform(0, 2 * math.pi, size=2)
        got = upper_block(b1, b2, p1, p2)
        np.testing.assert_allclose(got, omega3_upper_printed(b1, b2, p1, p2), atol=1e-12)


def test_omega_block_scalar_reduces_to_omega2():
    # at beta = 0 omega3 is the k=2 block: omega2 in the leading 2x2 corner
    rng = make_rng(5)
    for _ in range(100):
        alpha, phi = rng.uniform(0, 2 * math.pi, size=2)
        om = omega3(CosetChart3(0.5, 0.6, alpha, phi))
        np.testing.assert_allclose(om[:2, :2], omega2(CosetChart2(0.1, alpha, phi)),
                                   atol=1e-12)
        np.testing.assert_array_equal(om[2], [0, 0, 1])
        np.testing.assert_array_equal(om[:2, 2], [0, 0])


def test_omega_block_tiny_beta_series_branch():
    # small |B| on both sides of 1e-4, where the direct form of cos|B| - 1 would
    # cancel: the block stays unitary and matches the printed trig form
    for scale in (1e-7, 1e-5, 9.9e-5, 1.1e-4, 1e-3):
        om = upper_block(scale * 0.6, scale * 0.8, 0.0, math.pi / 2)
        np.testing.assert_allclose(om.conj().T @ om, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(om, omega3_upper_printed(
            scale * 0.6, scale * 0.8, 0.0, math.pi / 2), atol=1e-13)


MP = mpmath.MPContext()
MP.dps = 50
# each factor of the coset blocks, its direct form in mpmath and its value at 0;
# cfac is the k = 3 block's (cos x - 1)/x^2, which _omega3_rows forms as
# -2 sin_half_over(x)^2
MP_SERIES = {
    "sin_half_over": (coset.sin_half_over, lambda x: MP.sin(x / 2) / x, 0.5),
    "sinc": (coset.sinc, lambda x: MP.sin(x) / x, 1.0),
    "one_minus_sinc": (coset.one_minus_sinc, lambda x: 1 - MP.sin(x) / x, 0.0),
    "cfac": (lambda x: -2.0 * coset.sin_half_over(x) ** 2,
             lambda x: (MP.cos(x) - 1) / x ** 2, -0.5),
}


@pytest.mark.parametrize("name", ["sinc", "sin_half_over"])
def test_small_argument_series_within_two_ulp(name):
    # the quotients at a small argument and at the chart's end pi, against 50
    # digits: measured at most 0.69 ulp (sinc at 5e-5), so 2 ulp is a 2.9x margin
    fn, direct, _ = MP_SERIES[name]
    for x in (5e-5, -5e-5, math.pi, -math.pi):
        ref = direct(MP.mpf(x))
        assert abs(MP.mpf(fn(x)) - ref) <= 2 * math.ulp(float(ref))


def worst_rel_err(name, xs):
    """Max relative error of the factor ``name`` against 50 digits over ``xs``.
    The direct forms cancel to x^2 relative, so each is evaluated with that
    many digits more; a value below the smallest normal float is held to its
    absolute error in units of that float, as its subnormal spacing is fixed."""
    fn, direct, at_zero = MP_SERIES[name]
    worst = 0.0
    for x in map(float, xs):
        if x == 0.0:
            assert fn(x) == at_zero
            continue
        with MP.workdps(50 + max(0, round(-2 * math.log10(abs(x))))):
            ref = direct(MP.mpf(x))
        err = abs(MP.mpf(fn(x)) - ref) / max(abs(ref), sys.float_info.min)
        worst = max(worst, float(err))
    return worst


@pytest.mark.parametrize("name", MP_SERIES)
def test_series_branch_against_50_digits(name):
    # below |x| = 1, one_minus_sinc's series branch, from the subnormals up:
    # measured at most 2.3e-16 relative (one_minus_sinc), a 4.3x margin. The direct
    # forms (cos x - 1)/x^2 and 1 - sin(x)/x cancel here: above 1e-4 they err up to
    # 5.2e-9 and 5.0e-8
    xs = np.geomspace(1e-300, 1.0, 600, endpoint=False)
    xs = [*xs, *-xs[::7], 0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.5e-308, 5e-5,
          math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0)]
    assert worst_rel_err(name, xs) <= 1e-15


@pytest.mark.parametrize("name", MP_SERIES)
def test_factors_at_and_above_one_against_50_digits(name):
    # the direct forms from |x| = 1 to 100: measured at most 4.7e-16 relative
    # (one_minus_sinc just above 1, where 1 - sin(x)/x >= 0.158 cancels), a 2.1x margin
    xs = np.geomspace(1.0, 100.0, 300)
    assert worst_rel_err(name, [*xs, *-xs[::7], math.nextafter(1.0, 2.0), math.pi]) <= 1e-15


# ---------------------------------------------------------------------------
# 3-level pieces
# ---------------------------------------------------------------------------

def test_omega3_identity():
    ch = CosetChart3(0.2, math.pi / 5)
    np.testing.assert_allclose(omega3(ch), np.eye(3), atol=1e-15)


def test_omega3_unitary_random():
    rng = make_rng(7)
    for _ in range(200):
        om = omega3(random_chart3(rng))
        np.testing.assert_allclose(om.conj().T @ om, np.eye(3), atol=1e-12)


def test_diag3_examples():
    np.testing.assert_allclose(diag3(0.0, math.pi / 6).mat, np.diag([1.0, 0, 0]),
                               atol=1e-15)
    np.testing.assert_allclose(diag3(THETA1_MAX, math.pi / 4).mat,
                               np.eye(3) / 3, atol=1e-15)
    np.testing.assert_allclose(diag3(math.pi / 4, math.pi / 4).mat,
                               np.diag([0.5, 0.25, 0.25]), atol=1e-15)


def test_diag3_trace_exact():
    rng = make_rng(8)
    for _ in range(100):
        t1 = rng.uniform(0, THETA1_MAX)
        t2 = rng.uniform(math.pi / 6, math.pi / 4)
        assert abs(np.trace(diag3(t1, t2).mat).real - 1.0) <= 1e-15


def test_diag3_range_errors():
    with pytest.raises(OutOfChartRange):
        diag3(1.2, math.pi / 5)
    with pytest.raises(OutOfChartRange):
        diag3(0.3, 0.1)


def test_rho3_reduces_to_diag_at_zero_coset():
    ch = CosetChart3(0.5, 0.6)
    np.testing.assert_allclose(rho3(ch).mat, diag3(0.5, 0.6).mat, atol=1e-15)


def test_rho3_maximally_mixed_invariant():
    rng = make_rng(9)
    for _ in range(20):
        ch = random_chart3(rng)
        mixed = CosetChart3(THETA1_MAX, math.pi / 4, ch.alpha, ch.phi,
                            ch.beta1, ch.beta2, ch.psi1, ch.psi2)
        np.testing.assert_allclose(rho3(mixed).mat, np.eye(3) / 3, atol=1e-13)


def test_rho3_spectrum_preserved():
    rng = make_rng(10)
    for _ in range(200):
        ch = random_chart3(rng)
        r = rho3(ch)
        expected = np.sort(coset.diag_entries3(ch.theta1, ch.theta2))
        np.testing.assert_allclose(np.sort(r.eigenvalues), expected, atol=1e-10)


def test_produced_states_trace_hermitian_tight():
    rng = make_rng(12)
    for _ in range(200):
        r2 = rho2(random_chart2(rng)).mat
        r3 = rho3(random_chart3(rng)).mat
        for r in (r2, r3):
            assert abs(np.trace(r).real - 1.0) <= 1e-12
            assert np.max(np.abs(r - r.conj().T)) <= 1e-12


def omega3_lower_explicit(alpha, phi):
    """The k=2 block written out: omega2 embedded in the leading 2x2 corner."""
    ca, sa, e = math.cos(alpha), math.sin(alpha), np.exp(1j * phi)
    return np.array([[ca, e * sa, 0], [-np.conj(e) * sa, ca, 0], [0, 0, 1]], dtype=complex)


def rho3_reference(ch):
    """Omega D Omega† from the entrywise blocks and np.diag, with no coset code."""
    upper = (np.eye(3) if ch.beta == 0
             else omega3_upper_printed(ch.beta1, ch.beta2, ch.psi1, ch.psi2))
    om = upper @ omega3_lower_explicit(ch.alpha, ch.phi)
    s1sq = math.sin(ch.theta1) ** 2
    lam = [1 - s1sq, s1sq * math.cos(ch.theta2) ** 2, s1sq * math.sin(ch.theta2) ** 2]
    return om @ np.diag(lam) @ om.conj().T


_BASE3 = CosetChart3(0.7, 0.62, 0.4, 1.3, 0.9, -0.5, 2.2, -0.8)
RHO3_CASES = {
    "random": [random_chart3(make_rng(21)) for _ in range(300)],
    "beta=0": [replace(_BASE3, beta1=0.0, beta2=0.0)],
    # |B| below 1e-4, where the direct form of cos|B| - 1 would cancel
    "beta<cutoff": [replace(_BASE3, beta1=3e-5, beta2=-4e-5),
                    replace(_BASE3, beta1=0.0, beta2=9.9e-5)],
    "beta=3.1": [replace(_BASE3, beta1=3.1 * 0.6, beta2=3.1 * 0.8),
                 replace(_BASE3, beta1=-3.1, beta2=0.0)],
    "alpha<0": [replace(_BASE3, alpha=-0.4), replace(_BASE3, alpha=-2.9)],
    "|alpha|>2pi": [replace(_BASE3, alpha=7.5), replace(_BASE3, alpha=-9.1)],
}


@pytest.mark.parametrize("case", sorted(RHO3_CASES))
def test_rho3_matches_reference_assembly(case):
    for ch in RHO3_CASES[case]:
        np.testing.assert_allclose(rho3(ch).mat, rho3_reference(ch), rtol=0, atol=1e-14)


@pytest.mark.parametrize("alpha", [0.0, 0.3, -0.4, 7.5, -9.1])
def test_rho2_matches_reference_assembly(alpha):
    rng = make_rng(22)
    for theta in (0.0, 0.2, math.pi / 8, math.pi / 4, *rng.uniform(0, math.pi / 4, 50)):
        ch = CosetChart2(theta, alpha, rng.uniform(-7, 7))
        om = omega2(ch)
        ref = om @ np.diag([math.cos(theta) ** 2, math.sin(theta) ** 2]) @ om.conj().T
        np.testing.assert_allclose(rho2(ch).mat, ref, rtol=0, atol=1e-14)


def assert_exactly_hermitian_unit_trace(mat):
    assert np.array_equal(mat, mat.conj().T)
    assert not np.any(np.diag(mat).imag)
    assert abs(np.trace(mat).real - 1.0) <= 1e-15


@pytest.mark.parametrize("case", sorted(set(RHO3_CASES) - {"random"}))
def test_rho3_assembly_exactly_hermitian_at_edge_charts(case):
    for ch in RHO3_CASES[case]:
        assert_exactly_hermitian_unit_trace(rho3(ch).mat)


@pytest.mark.parametrize("alpha", [0.0, -0.4, 7.5, -9.1])
def test_rho2_assembly_exactly_hermitian_at_edge_charts(alpha):
    for theta in (0.0, math.pi / 8, math.pi / 4):
        for phi in (0.0, 2.5, -8.0):
            assert_exactly_hermitian_unit_trace(rho2(CosetChart2(theta, alpha, phi)).mat)


def test_chart3_beta_range():
    with pytest.raises(OutOfChartRange):
        CosetChart3(0.3, 0.6, beta1=3.0, beta2=1.5)  # hypot > pi


def test_chart_rejects_nonfinite():
    with pytest.raises(OutOfChartRange):
        CosetChart2(0.2, float("nan"), 0.0)


@pytest.mark.parametrize("value", ["abc", 1j, None], ids=["str", "complex", "None"])
def test_chart_refuses_a_coordinate_that_is_not_a_real_number(value):
    for chart, thetas, names in ((CosetChart2, (0.5,), ("alpha", "phi")),
                                 (CosetChart3, (0.5, 0.6), coset.FREE3)):
        for name in names:
            with pytest.raises(OutOfChartRange) as exc:
                chart(*thetas, **{name: value})
            assert exc.value.coordinate == name and exc.value.exit_code == 2


def test_chart_stores_each_coordinate_as_a_float():
    given = dict(alpha="1", phi=np.float64(0.25), beta1=np.float32(0.5), beta2=1,
                 psi1=np.float64(-0.0), psi2=0.7)
    ch = CosetChart3(0.5, 0.6, **given)
    assert [type(v) for v in ch.values()] == [float] * 8
    plain = CosetChart3(0.5, 0.6, 1.0, 0.25, 0.5, 1.0, -0.0, 0.7)
    assert ch == plain
    assert rho3(ch).mat.tobytes() == rho3(plain).mat.tobytes()
    ch2 = CosetChart2(np.float64(0.5), "0.3", np.float64(1.25))
    assert [type(v) for v in ch2.values()] == [float] * 3 and ch2.alpha == 0.3


def test_chart3_coordinates_whose_sum_overflows_are_kept():
    # the one-test fast path overflows; each coordinate alone is finite
    ch = CosetChart3(0.5, 0.6, alpha=1e308, phi=1e308, psi1=-1e308)
    assert (ch.alpha, ch.phi, ch.psi1) == (1e308, 1e308, -1e308)
    with pytest.raises(OutOfChartRange) as exc:
        CosetChart3(0.5, 0.6, alpha=1e308, phi=1e308, psi2=math.inf)
    assert exc.value.coordinate == "psi2"


def test_chart2_fast_path_matches_the_per_coordinate_checks():
    # the one-test path for an in-range float theta and two floats with a
    # finite sum stores what the per-coordinate checks return, and every other
    # input raises their first error, in the order theta, alpha, phi
    frees = [0.3, -0.0, 1e308, -1e308, math.nan, math.inf, -math.inf, 0, True,
             np.float64(0.25), "0.5", "abc", None]
    for theta in _theta_inputs(0.0, THETA_MAX):
        for alpha in frees:
            for phi in frees:
                want = _outcome(lambda: (
                    coset._require_range("theta", theta, 0.0, THETA_MAX),
                    coset._require_finite("alpha", alpha), coset._require_finite("phi", phi)))
                assert _outcome(lambda: CosetChart2(theta, alpha, phi).values()) == want, (
                    theta, alpha, phi)


def _outcome(build):
    """(type, repr) of what ``build`` returns, or of the error it raises."""
    try:
        value = build()
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), repr(value)


def _theta_inputs(lo, hi):
    """Each range end, RANGE_EPS and one ulp around it, signed zeros, an int,
    an np.float64, the non-finite floats and strings."""
    return [lo, hi, *(end + k * RANGE_EPS for end in (lo, hi) for k in (-2, -1, 1, 2)),
            math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf),
            0.0, -0.0, 0, 1, np.float64(0.5 * (lo + hi)), math.nan, math.inf, -math.inf,
            "0.55", "abc"]


def test_chart3_theta_fast_path_matches_require_range():
    # the one-test path for in-range float thetas returns what _require_range
    # returns, and every other input raises its error, theta1 first
    t1s = _theta_inputs(0.0, THETA1_MAX)
    t2s = _theta_inputs(THETA2_MIN, THETA2_MAX)
    for t1 in t1s:
        for t2 in t2s:
            want = [_outcome(lambda: coset._require_range("theta1", t1, 0.0, THETA1_MAX)),
                    _outcome(lambda: coset._require_range("theta2", t2, THETA2_MIN,
                                                          THETA2_MAX))]
            errors = [w for w in want if w[0] is not float]
            got = [_outcome(lambda: CosetChart3(t1, t2, beta1=0.3).theta1),
                   _outcome(lambda: CosetChart3(t1, t2, beta1=0.3).theta2)]
            assert got == ([errors[0]] * 2 if errors else want), (t1, t2)


def block_rows(n, k, b):
    """Rows of the n x n SU(k)/U(k-1) block for the complex (k-1)-vector b,
    from the generic formula of omega3's docstring."""
    m = k - 1
    babs = math.hypot(*map(abs, b))
    cfac = -2.0 * coset.sin_half_over(babs) ** 2  # (cos|B| - 1)/|B|^2
    sfac = coset.sinc(babs)             # sin|B|/|B|
    rows = [[0j] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1 + 0j
    row_m = rows[m]
    for i, bi in enumerate(b):
        row = rows[i]
        for j, bj in enumerate(b):
            row[j] += cfac * (bi * bj.conjugate())
        row[m] = bi * sfac
        row_m[i] = -sfac * bi.conjugate()
    row_m[m] = complex(math.cos(babs))
    return rows


def block_product_rows(ch):
    """Reference composition of Omega for rho3: the generic k=3 block rows
    times the k=2 block (cos alpha, e^{i phi} sin alpha), each entry a
    two-term sum (the k=2 block is the identity in its last row and column)."""
    upper = block_rows(3, 3, (cmath.rect(ch.beta1, ch.psi1), cmath.rect(ch.beta2, ch.psi2)))
    ca, e = complex(math.cos(ch.alpha)), cmath.rect(math.sin(ch.alpha), ch.phi)
    l00, l01, l10, l11 = ca, e, -e.conjugate(), ca
    return [[u0 * l00 + u1 * l10, u0 * l01 + u1 * l11, u2] for u0, u1, u2 in upper]


def test_rho3_equals_the_block_product_bit_for_bit():
    rng = make_rng(20261018)
    charts = [random_chart3(rng) for _ in range(500)]
    # a small k=3 block (|B| = 5e-5, B = 0),
    # signed zeros, and a beta whose square underflows
    for alpha in (0.0, -0.0, 1e-5):
        for b in (0.0, -0.0, 5e-5):
            for phi, psi1, psi2 in ((0.4, 0.1, 0.7), (0.0, 0.0, -0.0)):
                charts.append(CosetChart3(0.6, 0.68, alpha, phi, 0.6 * b, 0.8 * b, psi1, psi2))
    charts += [CosetChart3(0.6, 0.68, 0.3, 0.4, 1e-300, 0.0, 0.1, 0.7),
               CosetChart3(0.6, 0.68, 0.0, 0.0, 1e-300, 0.0, 0.0, 0.0)]
    for ch in charts:
        rows = block_product_rows(ch)
        want = coset._assemble3(rows, coset.diag_entries3(ch.theta1, ch.theta2)).mat
        assert rho3(ch).mat.tobytes() == want.tobytes(), ch
        assert omega3(ch).tobytes() == np.array(rows, dtype=np.complex128).tobytes(), ch


@pytest.mark.filterwarnings("error")
def test_rho3_builds_a_finite_state_at_every_finite_alpha():
    # alpha * conj(alpha) overflows above sqrt(max float) ~ 1.34e154, but the
    # k=2 block (cos alpha, e^{i phi} sin alpha) is finite for every finite alpha
    top = 1.3407807929942596e154
    for alpha in (1e154, top, -top, 1.35e154, 1e300, -1e300, 1e308):
        ch = CosetChart3(0.5, 0.6, alpha, 0.3)
        state = rho3(ch)
        assert np.isfinite(state.mat).all(), alpha
        checked = coset.as_density(state.mat)  # a fresh, fully checked state
        np.testing.assert_allclose(np.sort(checked.eigenvalues),
                                   np.sort(coset.diag_entries3(0.5, 0.6)), rtol=0, atol=1e-15)
        om = omega3(ch)
        np.testing.assert_allclose(om @ om.conj().T, np.eye(3), rtol=0, atol=1e-15)
        want = coset._assemble3(block_product_rows(ch), coset.diag_entries3(0.5, 0.6)).mat
        assert state.mat.tobytes() == want.tobytes(), alpha


def chart_box(lo, hi):
    """A theta across [lo, hi], ends included, and at and beyond the RANGE_EPS slack."""
    return st.floats(lo, hi) | st.sampled_from(
        [lo, hi, math.nextafter(lo, hi), math.nextafter(hi, lo), lo - RANGE_EPS, hi + RANGE_EPS,
         lo - 2 * RANGE_EPS, hi + 2 * RANGE_EPS, lo - 1.0, hi + 1.0])


FREE_ANGLES = st.floats(-1e11, 1e11) | st.sampled_from([1e11, -1e11, 0.0, -0.0, 5e-324])
BELOW_PI = math.nextafter(math.pi, 0.0)
BETA_PARTS = st.floats(-math.pi, math.pi) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-160, 1e-8,
     BELOW_PI, -BELOW_PI, math.pi])


@st.composite
def accepted_domain_charts(draw):
    """(chart class, coordinates): thetas across their boxes, free angles up
    to 1e11 in size, and (beta1, beta2) drawn apart, down to subnormals, or
    at a radius up to pi, just below it included."""
    if draw(st.booleans()):
        return CosetChart2, (draw(chart_box(0.0, THETA_MAX)), draw(FREE_ANGLES),
                             draw(FREE_ANGLES))
    if draw(st.booleans()):
        beta1, beta2 = draw(BETA_PARTS), draw(BETA_PARTS)
    else:
        r = draw(st.floats(0.0, math.pi) | st.sampled_from([BELOW_PI, math.pi - 1e-9]))
        a = draw(st.floats(-math.pi, math.pi))
        beta1, beta2 = r * math.cos(a), r * math.sin(a)
    return CosetChart3, (draw(chart_box(0.0, THETA1_MAX)), draw(chart_box(THETA2_MIN, THETA2_MAX)),
                         draw(FREE_ANGLES), draw(FREE_ANGLES), beta1, beta2,
                         draw(FREE_ANGLES), draw(FREE_ANGLES))


def outside_box(theta, lo, hi):
    return not lo - RANGE_EPS <= theta <= hi + RANGE_EPS


# the largest |eigenvalue - expected| over 20,000 such charts (13,315 accepted)
# measures 8.9e-16 (n = 2) and 1.4e-15 (n = 3)
RHO_SPECTRUM_ABS = 4e-15


@pytest.mark.filterwarnings("error")
@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(case=accepted_domain_charts())
def test_rho_over_the_accepted_domain_is_a_state_with_the_charts_spectrum(case):
    cls, coords = case
    if cls is CosetChart2:
        refused = outside_box(coords[0], 0.0, THETA_MAX)
    else:
        refused = (outside_box(coords[0], 0.0, THETA1_MAX)
                   or outside_box(coords[1], THETA2_MIN, THETA2_MAX)
                   or math.hypot(coords[4], coords[5]) >= math.pi)
    if refused:
        with pytest.raises(OutOfChartRange):
            cls(*coords)
        return
    chart = cls(*coords)
    if cls is CosetChart2:
        state = rho2(chart)
        want = sorted([math.cos(chart.theta) ** 2, math.sin(chart.theta) ** 2])
    else:
        state = rho3(chart)
        want = sorted(coset.diag_entries3(chart.theta1, chart.theta2))
    checked = coset.DensityMatrix(state.mat)  # the full construction check
    got = checked.eigenvalues.tolist()
    assert max(abs(g - w) for g, w in zip(got, want)) <= RHO_SPECTRUM_ABS, (coords, got, want)


@pytest.mark.filterwarnings("error")
def test_a_state_whose_hermitian_part_overflows_is_refused_as_not_psd():
    # finite, Hermitian and of unit trace, but A + A^dag overflows: refused
    # at construction, after the trace test
    mat = np.array([[0.5, 1e308], [1e308, 0.5]], dtype=complex)
    with pytest.raises(InvalidDensityMatrix,
                       match=r"^not PSD: the spectrum overflows \(a state has every \|rho_ij\| <= 1\)$"):
        coset.DensityMatrix(mat)
    # a wrong trace is reported first
    assert scalar_state_check(mat + np.eye(2)).startswith("trace (3+0j) differs")


def test_density_matrix_whose_defect_overflows_is_not_hermitian():
    # abs() of the finite A_01 - conj(A_10) raises OverflowError in Python
    mat = np.array([[0.5, 1e308 + 1e308j], [-0.5e308 + 0.5e308j, 0.5]])
    assert scalar_state_check(mat) == "not Hermitian: max |A - A^dag| = inf > 1.0e-10"
    # a Hermitian part that overflows does not hide a defect elsewhere
    mat = np.array([[0.5, 1e308, 1.0], [1e308, 0.3, 0.0], [0.0, 0.0, 0.2]])
    assert scalar_state_check(mat) == numpy_state_check(mat) == (
        "not Hermitian: max |A - A^dag| = 1.000e+00 > 1.0e-10")


def built_states():
    """States that rho2, rho3, diag2 and diag3 build at seeded charts and at
    edge charts: theta at the ends of its range (and RANGE_EPS beyond),
    signed zeros, beta1 = +-1e-300 and |alpha| up to the largest whose
    square is finite."""
    rng = make_rng(17)
    for _ in range(200):
        yield rho2(random_chart2(rng))
        yield rho3(random_chart3(rng))
    top = 1.3407807929942596e154
    for theta in (0.0, -0.0, math.pi / 4, math.pi / 4 + RANGE_EPS):
        yield diag2(theta)
        for alpha, phi in ((0.0, 0.0), (-0.0, -0.0), (1e154, 1.1), (top, 0.3), (-top, -0.0)):
            yield rho2(CosetChart2(theta, alpha, phi))
    for t1 in (0.0, -0.0, THETA1_MAX, THETA1_MAX + RANGE_EPS):
        for t2 in (THETA2_MIN, THETA2_MAX, THETA2_MIN - RANGE_EPS):
            yield diag3(t1, t2)
            for alpha in (0.0, -0.0, 1e154, top, -top):
                for b1 in (1e-300, -1e-300, 0.0, -0.0):
                    yield rho3(CosetChart3(t1, t2, alpha, -0.0, b1, 0.0, 0.1, -0.0))
                    yield rho3(CosetChart3(t1, t2, alpha, 0.4, b1, -0.0, -0.0, 0.7))


@pytest.mark.filterwarnings("error")
def test_built_states_pass_the_checked_constructor_unchanged():
    # the builders skip the construction check; each state they form must pass it.
    # The PSD half of tol.INVARIANT (1e-10) has a margin of about 7e6 here: the
    # most negative eigenvalue over these states measures -1.39e-17
    count = 0
    lam_min = math.inf
    for built in built_states():
        assert built.mat.dtype == np.complex128 and not built.mat.flags.writeable
        checked = coset.DensityMatrix(built.mat)
        assert checked.mat.tobytes() == built.mat.tobytes()
        lam_min = min(lam_min, checked.eigenvalues[0])
        count += 1
    assert count == 400 + 4 * 6 + 12 * 41
    assert lam_min >= -1e-16


def numpy_hermitian_part(mat):
    return (mat + mat.conj().T) / 2


@pytest.mark.filterwarnings("error")
def test_every_built_state_decomposes_as_its_numpy_hermitian_part():
    # the builders mirror conjugates and keep a real diagonal, so a built state
    # equals its Hermitian part (A + A^dag) / 2 in value, and eig_hermitian
    # takes its spectrum of the state itself. numpy's complex halving turns a
    # -0.0 next to a negative part into +0.0 (-1e-300 - 0j comes back as
    # -1e-300 + 0j), so the bytes may differ in signed zeros; the spectra do not
    edge = [ch for case in RHO3_CASES.values() for ch in case]
    edge += [replace(_BASE3, beta1=math.nextafter(math.pi, 0.0), beta2=0.0),
             replace(_BASE3, beta1=-0.0, beta2=math.nextafter(math.pi, 0.0)),
             replace(_BASE3, theta1=1e-9), replace(_BASE3, theta2=THETA2_MIN),
             replace(_BASE3, theta1=THETA1_MAX, theta2=THETA2_MAX)]
    states = [*built_states(), *map(rho3, edge),
              *(rho2(CosetChart2(theta, 0.3, 1.1)) for theta in (1e-9, math.pi / 4 - 1e-9))]
    signed_zeros_only = 0
    for state in states:
        herm = numpy_hermitian_part(state.mat)
        assert np.array_equal(state.mat, herm), state.mat
        signed_zeros_only += state.mat.tobytes() != herm.tobytes()
        w, v = np.linalg.eigh(herm)
        assert state.eigenvalues.tobytes() == w.tobytes(), state.mat
        assert state.spectral.eigenvectors.tobytes() == v.tobytes(), state.mat
    assert 0 < signed_zeros_only < len(states)


def phased(mat, rng):
    """U mat U^dag for a random diagonal unitary U."""
    phase = np.exp(1j * rng.uniform(0.0, 2 * math.pi, len(mat)))
    return phase[:, None] * mat * phase.conj()[None, :]


def antihermitian_noise(rng, n, size):
    """K = -K^dag with max |K - K^dag| = size and a diagonal summing to about 0,
    so the trace test still passes."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    k = g - g.conj().T
    k[np.diag_indices(n)] -= np.trace(k) / n
    return k * (size / np.max(np.abs(k - k.conj().T)))


def hermitian_part_cases():
    """Chart states under random diagonal phases, Hilbert-Schmidt states at
    n = 2, 3, 4, rank-1 and rank-2 states, signed zeros, subnormals,
    off-diagonals next to 2**1023 whose sum stays finite, and states with
    antihermitian noise up to INVARIANT."""
    rng = make_rng(23)
    out = [phased(rho2(random_chart2(rng)).mat, rng) for _ in range(50)]
    out += [phased(rho3(random_chart3(rng)).mat, rng) for _ in range(100)]
    for n in (2, 3, 4):
        for rank in sorted({1, 2, n}):
            for _ in range(20):
                g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
                state = g @ g.conj().T
                out.append(state / np.trace(state).real)
    zeros = (0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0))
    tiny = (5e-324, -5e-324, complex(5e-324, -5e-324), complex(-1e-310, 5e-324))
    pairs = [(upper, lower) for values in (zeros, tiny) for upper in values for lower in values]
    # a negative part next to a signed zero, where numpy's halving turns -0.0 into +0.0
    pairs += [(complex(-0.25, -0.0), complex(-0.25, 0.0)), (complex(-0.25, -0.0), -0.25),
              (complex(-0.0, -0.25), complex(0.0, 0.25)), (complex(0.0, -0.25), 0.25j)]
    for upper, lower in pairs:
        for diag in zeros:
            out.append(with_entry(with_entry(with_entry(
                BASE3, (0, 1), upper), (1, 0), lower), (2, 2), 0.2 + diag))
    top = math.nextafter(2.0 ** 1023, 0.0)  # 2 * top is the largest float
    for z in (top, -top, complex(top, -top), complex(0.5, top)):
        out.append(np.array([[0.5, z], [np.conj(z), 0.5]], dtype=complex))
    for size in (0.25, 0.5, 0.999):
        for state in out[:150:10]:
            out.append(state + antihermitian_noise(rng, len(state), size * INVARIANT))
    return out


@pytest.mark.filterwarnings("error")
def test_the_check_hands_the_solver_numpys_hermitian_part(monkeypatch):
    # (A + A^dag) / 2, formed entry by entry in the check's one pass, is the
    # numpy expression byte for byte, and so is the spectrum taken of it
    solved = []
    eig = matcore.eig_hermitian
    monkeypatch.setattr(matcore, "eig_hermitian", lambda h: solved.append(h) or eig(h))
    cases = hermitian_part_cases()
    refused = 0
    for mat in cases:
        try:
            state = coset.DensityMatrix(mat)
        except InvalidDensityMatrix as exc:  # only the states next to 2**1023
            assert str(exc).startswith("not PSD: min eigenvalue"), mat
            refused += 1
            state = None
        want = numpy_hermitian_part(mat)
        assert solved[-1].dtype == np.complex128 and solved[-1].tobytes() == want.tobytes(), mat
        if state is not None:
            w, v = np.linalg.eigh(want)
            assert state.spectral.eigenvalues.tobytes() == w.tobytes(), mat
            assert state.spectral.eigenvectors.tobytes() == v.tobytes(), mat
    assert len(solved) == len(cases) and 0 < refused <= 4


def test_density_matrix_invariant_errors():
    with pytest.raises(InvalidDensityMatrix):
        coset.as_density(np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))  # not Hermitian
    with pytest.raises(InvalidDensityMatrix):
        coset.as_density(np.diag([0.9, 0.9]).astype(complex))  # trace 1.8
    with pytest.raises(InvalidDensityMatrix):
        coset.as_density(np.diag([1.5, -0.5]).astype(complex))  # not PSD


@pytest.mark.parametrize("entries, rotate, lam_min", [
    ((1.5, -0.5), False, "-5.000e-01"), ((1.5, -0.5), True, "-5.000e-01"),
    ((0.7, 0.5, -0.2), False, "-2.000e-01"), ((0.7, 0.5, -0.2), True, "-2.000e-01"),
    ((0.6, 0.4 + 2 * INVARIANT, -2 * INVARIANT), False, "-2.000e-10")])
def test_a_matrix_that_is_not_psd_is_refused_at_construction(entries, rotate, lam_min):
    mat = np.diag(entries).astype(complex)
    if rotate:
        u = random_unitary(make_rng(3), len(entries))
        mat = u @ mat @ u.conj().T
    with pytest.raises(InvalidDensityMatrix,
                       match=rf"^not PSD: min eigenvalue {lam_min} < -1\.0e-10$") as exc:
        coset.DensityMatrix(mat)
    assert exc.value.exit_code == 4


def test_construction_keeps_the_spectrum_it_checked(monkeypatch):
    # one eigendecomposition per checked state: at construction, for the PSD
    # test, and none after it; an eigenvalue of exactly -INVARIANT passes
    calls = []
    eig = matcore.eig_hermitian
    monkeypatch.setattr(matcore, "eig_hermitian", lambda a: calls.append(1) or eig(a))
    state = coset.DensityMatrix(np.diag([0.6, 0.4 + INVARIANT, -INVARIANT]).astype(complex))
    assert len(calls) == 1
    assert state.eigenvalues[0] == -INVARIANT and state.spectral is state.spectral
    assert coset.as_density(state) is state
    assert len(calls) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [(0, 0), (0, 1), (1, 0)])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_density_matrix_rejects_nonfinite_entry(bad, at, part):
    # rejected before any arithmetic, so no inf - inf RuntimeWarning either
    mat = np.diag([0.5, 0.5]).astype(complex)
    getattr(mat, part)[at] = bad
    with pytest.raises(InvalidDensityMatrix, match="non-finite"):
        coset.as_density(mat)


def numpy_state_check(mat):
    """The construction checks of DensityMatrix written as numpy expressions:
    the message of the first check that fails, or None."""
    if not np.isfinite(mat).all():
        return "matrix has a non-finite entry"
    defect = float(np.max(np.abs(mat - mat.conj().T)))
    if defect > INVARIANT:
        return f"not Hermitian: max |A - A^dag| = {defect:.3e} > {INVARIANT:.1e}"
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > INVARIANT:
        return f"trace {tr!r} differs from 1 by more than {INVARIANT:.1e}"
    with np.errstate(over="ignore"):
        if not np.isfinite(mat + mat.conj().T).all():
            return "not PSD: the spectrum overflows (a state has every |rho_ij| <= 1)"
    lam_min = np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0]
    if lam_min < -INVARIANT:
        return f"not PSD: min eigenvalue {lam_min:.3e} < -{INVARIANT:.1e}"
    return None


def scalar_state_check(mat):
    try:
        coset.DensityMatrix(mat)
    except InvalidDensityMatrix as exc:
        return str(exc)
    return None


def with_entry(mat, at, value):
    out = np.array(mat, dtype=complex)
    out[at] = value
    return out


BASE3 = np.diag([0.5, 0.3, 0.2]).astype(complex)


def test_state_check_at_the_invariant_threshold():
    # A_01 - conj(A_10) = 0.5e-10 i + 0.5e-10 i is exactly INVARIANT
    at = with_entry(with_entry(BASE3, (0, 1), 0.5j * INVARIANT), (1, 0), 0.5j * INVARIANT)
    assert scalar_state_check(at) is None
    twice = with_entry(with_entry(BASE3, (0, 1), 1j * INVARIANT), (1, 0), 1j * INVARIANT)
    assert scalar_state_check(twice) == "not Hermitian: max |A - A^dag| = 2.000e-10 > 1.0e-10"
    # a defect on the diagonal counts twice its imaginary part
    assert scalar_state_check(with_entry(BASE3, (2, 2), 0.2 + 0.5j * INVARIANT)) is None
    assert "not Hermitian" in scalar_state_check(with_entry(BASE3, (2, 2), 0.2 + 1j * INVARIANT))
    # a trace of 1 +- INVARIANT rounds to 1 +- 1.00000008e-10 and fails;
    # the next double toward 1 passes (both sums below are exact)
    for sign in (1.0, -1.0):
        over = 1.0 + sign * INVARIANT
        for trace, ok in ((over, False), (math.nextafter(over, 1.0), True)):
            state = np.diag([trace - 0.5, 0.5]).astype(complex)
            assert (scalar_state_check(state) is None) is ok
            assert scalar_state_check(state) == numpy_state_check(state)


def test_state_check_matches_the_numpy_expressions():
    # nan, +-inf and signed zeros at every entry, defects, trace errors and
    # eigenvalues around INVARIANT, and random states: the same decision and message
    rng = make_rng(14)
    mats = []
    for i in range(3):
        for j in range(3):
            for value in (math.nan, math.inf, -math.inf, complex(0.0, math.nan),
                          complex(math.inf, -math.inf), -0.0, complex(-0.0, -0.0),
                          complex(0.0, -0.0)):
                mats.append(with_entry(BASE3, (i, j), value))
            for dev in (0.5, 1.0, 1.5, 2.0, -1.0):
                mats.append(with_entry(BASE3, (i, j), BASE3[i, j] + dev * INVARIANT))
                mats.append(with_entry(BASE3, (i, j), BASE3[i, j] + 1j * dev * INVARIANT))
    signed = BASE3.copy()
    signed.imag[:] = -0.0
    mats += [signed, -0.0 * BASE3, BASE3 * (1 + INVARIANT), BASE3 * (1 - INVARIANT),
             np.array([[0.5, 1e300], [-1e300, 0.5]], dtype=complex),
             np.array([[0.5, 1e308], [1e308, 0.5]], dtype=complex)]
    for _ in range(300):
        n = int(rng.integers(2, 4))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        state = g @ g.conj().T
        state = state / np.trace(state).real
        scale = float(rng.choice([0.0, 0.5, 1.0, 2.0, 10.0])) * INVARIANT
        state = state + scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        mats.append(state)
    # eigenvalues around -INVARIANT, and states that are not PSD, also rotated
    for dev in (0.5, 1.0, 2.0, 1e9):
        mats.append(np.diag([0.6, 0.4 + dev * INVARIANT, -dev * INVARIANT]).astype(complex))
    for entries in ((1.5, -0.5), (0.7, 0.5, -0.2), (1.3, -0.1, -0.2)):
        u = random_unitary(rng, len(entries))
        mats.append(u @ np.diag(entries) @ u.conj().T)
    kinds = ("matrix has", "not Hermitian", "trace", "not PSD: the spectrum",
             "not PSD: min eigenvalue")
    decided = set()
    for mat in mats:
        want = numpy_state_check(mat)
        assert scalar_state_check(mat) == want, mat
        decided.add(next(k for k in kinds if want.startswith(k)) if want else None)
    assert decided == {None, *kinds}


# ---------------------------------------------------------------------------
# permutation identities
# ---------------------------------------------------------------------------

def test_permutation_table_has_six_verified_entries():
    table = permutation_table()
    assert len(table) == 6
    for entry in table:
        assert entry.residual_exact <= 1e-12
        assert entry.residual_coset <= 1e-12


def test_permutation_residuals_keep_their_margin_to_perm_verify():
    # the six fixed identities are the whole domain of tol.PERM_VERIFY (1e-12):
    # the worst residuals measure 1.22e-16 (exact) and 1.11e-16 (coset)
    table = permutation_table()
    assert max(entry.residual_exact for entry in table) <= 2.5e-16
    assert max(entry.residual_coset for entry in table) <= 2.5e-16


def test_permutation_identity_entry():
    table = permutation_table()
    first = table[0]
    assert first.name == "(Id)"
    assert first.phase == 1.0
    assert first.residual_literal <= 1e-15
    np.testing.assert_allclose(first.omega, np.eye(3), atol=1e-15)


def test_permutation_cycles_match_patterns():
    table = {p.name: p for p in permutation_table()}
    p123 = table["i(123)"]
    # the 3-cycle sends level 1 -> 2 -> 3 -> 1
    np.testing.assert_allclose(p123.perm, np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    assert p123.phase == 1j
    # the product realizes the cycle exactly modulo torus phases
    r = (p123.phase * p123.perm).conj().T @ p123.omega
    np.testing.assert_allclose(r - np.diag(np.diag(r)), np.zeros((3, 3)), atol=1e-14)
    np.testing.assert_allclose(np.abs(np.diag(r)), np.ones(3), atol=1e-14)
    p321 = table["i(321)"]
    np.testing.assert_allclose(p321.perm, np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))


def test_permutations_act_on_diagonals():
    # the meaningful content: Omega D Omega† permutes the diagonal entries
    d = np.diag([0.5, 0.3, 0.2]).astype(complex)
    for entry in permutation_table():
        conj = entry.omega @ d @ entry.omega.conj().T
        expected = entry.perm @ d @ entry.perm.T
        np.testing.assert_allclose(conj, expected, atol=1e-13)


def test_unitarity_mass_random():
    # chart unitarity at scale: 10^4 random charts across both dimensions
    rng = make_rng(14)
    for _ in range(5000):
        om = omega2(random_chart2(rng))
        assert np.linalg.norm(om.conj().T @ om - np.eye(2)) <= 1e-12
    for _ in range(5000):
        om = omega3(random_chart3(rng))
        assert np.linalg.norm(om.conj().T @ om - np.eye(3)) <= 1e-12
