import cmath
import functools
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from buresgeo import coset, metric, recover
from buresgeo.bures import bures_distance, fidelity
from buresgeo.coset import CosetChart2, CosetChart3, THETA1_MAX, THETA2_MAX, THETA2_MIN
from buresgeo.cli import main
from buresgeo.errors import BuresGeoError, DegenerateSpectrum, FitFailure, OutOfChartRange
from buresgeo.recover import find_chart, find_chart2, find_chart3
from buresgeo.sampling import (make_rng, random_chart2, random_chart3, random_density,
                               random_unitary)
from buresgeo.tol import FAIL_RESIDUAL, RANGE_EPS
from test_bures import draw_state
from test_matcore import _states_to_4

# a bound the closed-form inverse keeps on in-chart states with about seven
# orders to spare; a spoiled seed lies between it and FAIL_RESIDUAL
TARGET_RESIDUAL = 1e-8


def test_find_chart2_diagonal_example():
    chart, res = find_chart2(np.diag([0.75, 0.25]).astype(complex))
    assert chart.theta == pytest.approx(math.pi / 6, abs=1e-12)
    # alpha must be 0 mod pi (the state is already diagonal)
    assert min(abs(chart.alpha % math.pi), math.pi - (chart.alpha % math.pi)) <= 1e-9
    assert res <= 1e-10


def test_find_chart2_round_trip():
    rng = make_rng(0)
    for _ in range(50):
        ch = random_chart2(rng)
        rho = coset.rho2(ch)
        rec, res = find_chart2(rho)
        assert res <= 1e-8
        assert np.linalg.norm(coset.rho2(rec).mat - rho.mat) <= 1e-8


def test_find_chart3_round_trip():
    rng = make_rng(1)
    for _ in range(50):
        ch = random_chart3(rng)
        rho = coset.rho3(ch)
        rec, res = find_chart3(rho)
        assert res <= 1e-8
        assert np.linalg.norm(coset.rho3(rec).mat - rho.mat) <= 1e-8


def test_find_chart3_rotated_diagonal():
    # states built outside the chart machinery, from a generic unitary
    rng = make_rng(2)
    for _ in range(20):
        lam = np.sort(rng.dirichlet([4, 4, 4]))[::-1]
        if min(np.diff(np.sort(lam))) < 1e-3 or lam[1] > 3 * lam[2] or lam[0] < 1 / 3:
            continue  # keep only chart-reachable, well-separated spectra
        u = random_unitary(rng, 3)
        rho = coset.DensityMatrix(u @ np.diag(lam).astype(complex) @ u.conj().T)
        rec, res = find_chart3(rho)
        assert res <= 1e-8
        assert np.linalg.norm(coset.rho3(rec).mat - rho.mat) <= 1e-8


def test_find_chart_degenerate_raises():
    with pytest.raises(DegenerateSpectrum):
        find_chart2(np.eye(2, dtype=complex) / 2)
    with pytest.raises(DegenerateSpectrum):
        find_chart3(np.eye(3, dtype=complex) / 3)


def test_find_chart3_unreachable_spectrum():
    # lambda2/lambda3 > 3 in every admissible ordering: outside the theta box
    with pytest.raises(OutOfChartRange):
        find_chart3(np.diag([0.5, 0.4, 0.1]).astype(complex))


def test_find_chart3_edge_of_the_theta_box():
    # theta2 lands 1e-10 below pi/6 for the one ordering near the box (lambda2/lambda3
    # just above 3); the chart slack admits it and CosetChart3 clamps it
    theta1, theta2 = 0.5, THETA2_MIN - 1e-10
    lam = coset.diag_entries3(theta1, theta2)
    for perm in itertools.permutations(range(3)):
        t1, t2 = recover._theta3_from_spectrum([lam[k] for k in perm])
        assert not (t1 <= THETA1_MAX and THETA2_MIN <= t2 <= THETA2_MAX)
    chart, res = find_chart3(np.diag(lam).astype(complex))
    expected = CosetChart3(theta1, theta2)
    assert expected.theta2 == THETA2_MIN
    assert chart.theta2 == expected.theta2
    assert chart.theta1 == pytest.approx(expected.theta1, abs=1e-12)
    assert res <= 1e-8
    # rotated spectra about the theta2 = pi/6 edge fit or are refused exactly as
    # the six-ordering reference decides, with the same bits
    rng = make_rng(21)
    outcomes = set()
    for w in theta2_edge_spectra():
        u = random_unitary(rng, 3)
        mat = u @ np.diag(w).astype(complex) @ u.conj().T
        try:
            want = argsort_find_chart3(mat)
        except OutOfChartRange:
            with pytest.raises(OutOfChartRange, match="no eigenvalue ordering fits"):
                find_chart3(mat)
            outcomes.add("refused")
            continue
        chart, res = find_chart3(mat)
        assert np.array(chart.values()).tobytes() == np.array(want[0].values()).tobytes()
        assert res == want[1] and res <= 1e-8
        outcomes.add("fit")
    assert outcomes == {"fit", "refused"}


def theta2_edge_spectra():
    """Spectra at the theta2 = pi/6 edge of the chart box, where lambda2 = 3 lambda3:
    lambda2/lambda3 = 3(1 +- k 1e-9) for k = 1, 2, 3; theta2 1e-12 either side of
    the slack edge pi/6 - RANGE_EPS; each of those at trace 1, 1 - 9e-11 and 1 + 9e-11
    (1 +- 1e-10 would sit on the state's trace check); and one spectrum with an
    eigenvalue at -1e-11."""
    edge = []
    for k in (1, 2, 3):
        for sign in (1, -1):
            l2 = 0.3 * (1 + sign * k * 1e-9)
            edge.append([0.9 - l2, l2, 0.1])
    for off in (-1e-12, 1e-12):
        t2 = THETA2_MIN - RANGE_EPS + off
        edge.append([math.cos(0.5) ** 2, (math.sin(0.5) * math.cos(t2)) ** 2,
                     (math.sin(0.5) * math.sin(t2)) ** 2])
    for tr in (1.0, 1 - 9e-11, 1 + 9e-11):
        yield from ([tr * x for x in w] for w in edge)
    yield [0.7, 0.3 + 1e-11, -1e-11]


def test_find_chart_of_one_n_refuses_a_state_of_the_other():
    for find, n, other in ((find_chart2, 2, 3), (find_chart3, 3, 2)):
        with pytest.raises(OutOfChartRange, match=f"coordinate n={other}") as exc:
            find(np.eye(other, dtype=complex) / other + np.diag(np.linspace(0.1, -0.1, other)))
        assert exc.value.coordinate == "n" and exc.value.exit_code == 2
        assert f"find_chart{n} needs a {n}x{n} state" in str(exc.value)


def test_uncharted_n_is_out_of_chart_range():
    with pytest.raises(OutOfChartRange, match="coordinate n=4") as sampled:
        random_density(make_rng(0), 4)
    with pytest.raises(OutOfChartRange, match="coordinate n=4") as recovered:
        find_chart(np.eye(4, dtype=complex) / 4)
    # both look n up in the one family table
    with pytest.raises(OutOfChartRange) as looked_up:
        metric.family(4)
    assert sampled.value.args == recovered.value.args == looked_up.value.args


def test_find_chart_dispatch():
    rng = make_rng(3)
    rho2 = coset.rho2(random_chart2(rng))
    chart, _ = find_chart(rho2)
    assert isinstance(chart, CosetChart2)
    rho3 = coset.rho3(random_chart3(rng))
    chart, _ = find_chart(rho3)
    assert isinstance(chart, CosetChart3)


def test_find_chart3_beta_canonicalized():
    # recovery maps into the beta <= pi/2 representative; same state either way
    ch = CosetChart3(0.6, 0.7, alpha=0.5, phi=0.4, beta1=2.0, beta2=1.2,
                     psi1=0.9, psi2=0.1)
    rho = coset.rho3(ch)
    rec, res = find_chart3(rho)
    assert res <= 1e-8
    assert rec.beta <= math.pi / 2 + 1e-9


def argsort_find_chart3(rho):
    """find_chart3's analytic path as it read with np.argsort: the spectrum
    sorted descending by index, the permutations tried on numpy scalars."""
    dm = coset.as_density(rho)
    spec = dm.spectral
    order = np.argsort(spec.eigenvalues)[::-1]
    w = spec.eigenvalues[order]
    v = spec.eigenvectors[:, order]
    coset.require_gap(w.tolist())
    for perm in itertools.permutations(range(3)):
        t1, t2 = recover._theta3_from_spectrum(tuple(float(w[p]) for p in perm))
        if t1 <= THETA1_MAX + RANGE_EPS and THETA2_MIN - RANGE_EPS <= t2 <= THETA2_MAX + RANGE_EPS:
            break
    else:
        raise OutOfChartRange("spectrum", tuple(float(x) for x in w), "no ordering")
    chart = CosetChart3(t1, t2, *recover._coset_params_from_eigvecs(v[:, list(perm)]))
    return chart, float(np.linalg.norm(coset.rho3(chart).mat - dm.mat))


def chart_states3(seed, count):
    """In turn: in-chart states under random diagonal phases, Hilbert-Schmidt
    states, and states of edge charts from EDGE_BETAS and EDGE_ALPHAS."""
    rng = make_rng(seed)
    for i in range(count):
        kind = i % 3
        if kind == 0:
            mat = coset.rho3(random_chart3(rng)).mat
            phase = np.exp(1j * rng.uniform(0.0, 2 * math.pi, 3))
            yield phase[:, None] * mat * phase.conj()[None, :]
        elif kind == 1:
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            mat = g @ g.conj().T
            yield mat / np.trace(mat).real
        else:
            phi, psi1, psi2 = rng.uniform(0.0, 2 * math.pi, size=3)
            yield coset.rho3(edge_chart3(EDGE_BETAS[i % len(EDGE_BETAS)],
                                         float(rng.uniform(0.0, 2 * math.pi)),
                                         EDGE_ALPHAS[i % len(EDGE_ALPHAS)],
                                         phi=phi, psi1=psi1, psi2=psi2)).mat


def test_find_chart3_matches_the_argsort_path_bit_for_bit():
    recovered = 0
    for mat in chart_states3(23, 1500):
        try:
            want = argsort_find_chart3(mat)
        except (OutOfChartRange, DegenerateSpectrum) as exc:
            with pytest.raises(type(exc)):
                find_chart3(mat)
            continue
        chart, res = find_chart3(mat)
        assert np.array(chart.values()).tobytes() == np.array(want[0].values()).tobytes()
        assert res == want[1]
        recovered += 1
    assert recovered >= 1000


# ---------------------------------------------------------------------------
# coordinate edges: the analytic inverse alone must round-trip them
# ---------------------------------------------------------------------------

EDGE_RES = 1e-13
# at pi/2 +- 1e-15, |Omega_33| is about 1e-15, and only an exact 0 leaves its phase unfixed
EDGE_BETAS = (0.0, 1e-12, 1e-9, 1.3e-8, 2e-8, math.pi / 2, math.pi / 2 - 1e-15,
              math.pi / 2 + 1e-15, math.pi - 1e-9, math.pi - 1.2e-8)
EDGE_ALPHAS = (0.0, 1e-13, math.pi / 2)
# (beta1, beta2) direction: all of beta in beta1, all in beta2, or split
EDGE_CHIS = (0.0, math.pi / 2, 0.7)
EDGE_ALPHAS2 = (0.0, 1e-13, 1e-9, 1.3e-8, math.pi / 2 - 1e-9, math.pi / 2,
                math.pi - 1e-9, math.pi)


def edge_chart3(beta, chi, alpha, theta1=0.5, theta2=0.65, phi=0.4, psi1=0.9, psi2=-1.1):
    # cos(pi/2) is 6e-17, not 0
    b1 = 0.0 if chi == math.pi / 2 else beta * math.cos(chi)
    b2 = beta * math.sin(chi)
    return CosetChart3(theta1, theta2, alpha=alpha, phi=phi, beta1=b1, beta2=b2,
                       psi1=psi1, psi2=psi2)


def assert_exact_round_trip(chart):
    build = coset.rho2 if isinstance(chart, CosetChart2) else coset.rho3
    rho = build(chart)
    rec, res = find_chart(rho)
    assert np.linalg.norm(build(rec).mat - rho.mat) <= EDGE_RES
    assert res <= EDGE_RES


@pytest.mark.parametrize("alpha", EDGE_ALPHAS)
@pytest.mark.parametrize("chi", EDGE_CHIS)
@pytest.mark.parametrize("beta", EDGE_BETAS)
def test_find_chart3_edges_round_trip_without_fallback(beta, chi, alpha):
    assert_exact_round_trip(edge_chart3(beta, chi, alpha))
    rng = make_rng(7)
    for _ in range(10):
        phi, psi1, psi2 = rng.uniform(0.0, 2 * math.pi, size=3)
        assert_exact_round_trip(edge_chart3(beta, float(rng.uniform(0.0, 2 * math.pi)),
                                            alpha, phi=phi, psi1=psi1, psi2=psi2))


@pytest.mark.parametrize("alpha", EDGE_ALPHAS2)
@pytest.mark.parametrize("phi", (0.0, 2.0))
@pytest.mark.parametrize("theta", (0.1, 0.5))
def test_find_chart2_edges_round_trip_without_fallback(theta, phi, alpha):
    assert_exact_round_trip(CosetChart2(theta, alpha=alpha, phi=phi))


# ---------------------------------------------------------------------------
# the scalar chart inverse against the numpy-product one it replaced
# ---------------------------------------------------------------------------

def numpy_coset_params_from_eigvecs(v):
    """recover._coset_params_from_eigvecs as it read with numpy: the third
    column's phase fixed with np.exp, the k=3 block built as a checked omega3
    array, and (alpha, phi) read off the full product upper† v."""
    col3 = v[:, 2].copy()
    if col3[2]:
        col3 = col3 * np.exp(-1j * np.angle(col3[2]))
    c1, c2, c3 = col3.tolist()
    sb = math.hypot(abs(c1), abs(c2))
    beta = math.atan2(sb, c3.real)
    scale = beta / sb if sb else 0.0
    b1, b2 = scale * abs(c1), scale * abs(c2)
    psi1 = cmath.phase(c1) if c1 else 0.0
    psi2 = cmath.phase(c2) if c2 else 0.0
    upper = coset.omega3(CosetChart3(0.0, THETA2_MIN, 0.0, 0.0, b1, b2, psi1, psi2))
    m = upper.conj().T @ v
    a, b = m[0, 1], m[1, 1]
    return (math.atan2(abs(m[1, 0]), abs(m[0, 0])),
            cmath.phase(a) - cmath.phase(b) if a and b else 0.0, b1, b2, psi1, psi2)


# The two inverses round differently (cmath against np.exp, and the product's
# summation), so their charts differ in the last bits. phi is undefined where
# sin 2 alpha = 0 and only e^{i phi} sin alpha cos alpha reaches the state:
# weighted by |sin 2 alpha| / 2, every coordinate agreed to 8.9e-16 (2 ulp of
# pi) on 16,000 seeded states and the edge grid. Unweighted, phi moved by up to
# 1.4e-13 at alpha near pi/2 and 8.7e-9 at the alpha = 0 edge.
COSET_AGREE = 2e-15


def assert_inverse_matches_numpy(v):
    """The scalar inverse's coset values agree with the numpy-product ones
    within COSET_AGREE; the angles (alpha, phi, psi1, psi2) modulo 2 pi."""
    want = numpy_coset_params_from_eigvecs(v)
    got = recover._coset_params_from_eigvecs(v)
    weights = (1.0, abs(math.sin(2 * want[0])) / 2, 1.0, 1.0, 1.0, 1.0)
    for k, (w, g, weight) in enumerate(zip(want, got, weights)):
        gap = abs(g - w) if k in (2, 3) else abs(cmath.exp(1j * (g - w)) - 1)
        assert gap * weight <= COSET_AGREE, (k, w, g)
    return got


def test_scalar_chart_inverse_matches_the_numpy_product_on_seeded_states():
    rng = make_rng(29)
    for _ in range(4000):
        mat = coset.rho3(random_chart3(rng)).mat
        phase = np.exp(1j * rng.uniform(0.0, 2 * math.pi, 3))
        assert_inverse_matches_numpy(
            recover._spectrum(phase[:, None] * mat * phase.conj()[None, :], 3)[2])


def test_scalar_chart_inverse_matches_the_numpy_product_on_the_edge_grid():
    for beta, chi, alpha in itertools.product(EDGE_BETAS, EDGE_CHIS, EDGE_ALPHAS):
        assert_inverse_matches_numpy(
            recover._spectrum(coset.rho3(edge_chart3(beta, chi, alpha)), 3)[2])


# column phases of the eigenvectors, which the inverse must not depend on:
# four for the third column (one turning it by 2 rad) times three for the first two
EIGVEC_PHASES = [(p1, p2, p3) for p3 in (1, -1, 1j, cmath.exp(2j))
                 for p1, p2 in ((1, 1), (-1, 1j), (1j, cmath.exp(-0.5j)))]


def test_scalar_chart_inverse_on_permuted_diagonal_states():
    # the eigenvectors of diag(0.5, 0.3, 0.2) in each level order are unit
    # vectors, whose exact zeros reach every convention branch of the inverse;
    # a diagonal state is blind to diagonal-phase conjugation, so the phase
    # patterns go on the eigenvector columns
    lam = (0.5, 0.3, 0.2)
    branches = set()
    for perm in itertools.permutations(range(3)):
        mat = np.diag([lam[k] for k in perm]).astype(complex)
        _, w, v = recover._spectrum(mat, 3)
        thetas = recover._theta3_from_spectrum(w)
        for phases in EIGVEC_PHASES:
            vp = v * np.array(phases)
            got = assert_inverse_matches_numpy(vp)
            chart = CosetChart3(*thetas, *got)
            assert np.linalg.norm(coset.rho3(chart).mat - mat) <= EDGE_RES
            c1, c2, c3 = vp[:, 2].tolist()
            if not c3:
                branches.add("no phase step")
            for psi, c in zip(got[4:], (c1, c2)):
                if not c:
                    assert psi == 0.0
                    branches.add("psi = 0")
            if got[1] == 0.0 and got[0] in (0.0, math.pi / 2):
                branches.add("phi = 0")
    assert branches == {"no phase step", "psi = 0", "phi = 0"}


angle = st.floats(0.0, 2 * math.pi)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(theta1=st.floats(0.05, coset.THETA1_MAX - 0.05),
       theta2=st.floats(coset.THETA2_MIN + 0.02, coset.THETA2_MAX - 0.02),
       alpha=st.one_of(st.sampled_from(EDGE_ALPHAS), angle),
       beta=st.one_of(st.sampled_from(EDGE_BETAS), st.floats(0.0, math.pi - 1e-9)),
       chi=st.one_of(st.sampled_from(EDGE_CHIS), angle),
       phi=angle, psi1=angle, psi2=angle)
def test_find_chart3_round_trip_property(theta1, theta2, alpha, beta, chi, phi, psi1, psi2):
    lam = coset.diag_entries3(theta1, theta2)
    assume(min(abs(lam[0] - lam[1]), abs(lam[0] - lam[2]), abs(lam[1] - lam[2])) >= 1e-3)
    assert_exact_round_trip(edge_chart3(beta, chi, alpha, theta1=theta1, theta2=theta2,
                                        phi=phi, psi1=psi1, psi2=psi2))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(theta=st.floats(0.01, math.pi / 4 - 0.01),
       alpha=st.one_of(st.sampled_from(EDGE_ALPHAS2), angle), phi=angle)
def test_find_chart2_round_trip_property(theta, alpha, phi):
    assert_exact_round_trip(CosetChart2(theta, alpha=alpha, phi=phi))


# ---------------------------------------------------------------------------
# a spoiled analytic seed: the closed form is the only fit
# ---------------------------------------------------------------------------

def shift_coset_values(monkeypatch, delta):
    """Shift every coset value find_chart3 reads off the eigenvectors by ``delta``."""
    exact = recover._coset_params_from_eigvecs
    monkeypatch.setattr(recover, "_coset_params_from_eigvecs",
                        lambda v: tuple(p + delta for p in exact(v)))


def tilt_eigenvectors(monkeypatch, angle):
    """Rotate the eigenvectors find_chart2 reads (alpha, phi) off by ``angle``."""
    exact = recover._spectrum
    c, s = math.cos(angle), math.sin(angle)
    tilt = np.array([[c, -s], [s, c]], dtype=complex)

    def tilted(rho, n):
        dm, w, v = exact(rho, n)
        return dm, w, tilt @ v

    monkeypatch.setattr(recover, "_spectrum", tilted)


def test_find_chart3_returns_a_slightly_spoiled_seed_unpolished(monkeypatch):
    rho = coset.rho3(random_chart3(make_rng(4)))
    seed = recover._coset_params_from_eigvecs(recover._spectrum(rho, 3)[2])
    shift_coset_values(monkeypatch, 1e-7)
    rec, res = find_chart3(rho)
    assert rec.values()[2:] == tuple(p + 1e-7 for p in seed)
    assert res == np.linalg.norm(coset.rho3(rec).mat - rho.mat)
    assert TARGET_RESIDUAL < res <= FAIL_RESIDUAL


def test_find_chart2_returns_a_slightly_spoiled_seed_unpolished(monkeypatch):
    rho = coset.rho2(random_chart2(make_rng(5)))
    tilt_eigenvectors(monkeypatch, 1e-7)
    rec, res = find_chart2(rho)
    _, _, v = recover._spectrum(rho, 2)
    assert (rec.alpha, rec.phi) == recover._block_angles(*v.ravel().tolist())
    assert res == np.linalg.norm(coset.rho2(rec).mat - rho.mat)
    assert TARGET_RESIDUAL < res <= FAIL_RESIDUAL


def test_a_seed_the_fit_cannot_mend_raises_fit_failure(monkeypatch, capsys):
    # coset values shifted by 0.5 leave a residual far above FAIL_RESIDUAL, and
    # no second fit runs: the recovery fails with FitFailure, exit 6
    shift_coset_values(monkeypatch, 0.5)
    with pytest.raises(FitFailure, match=r"^residual \S+ > 1\.0e-06$") as exc:
        find_chart3(coset.rho3(random_chart3(make_rng(4))))
    assert exc.value.exit_code == 6
    state = Path(__file__).resolve().parent / "data" / "state3a.json"
    assert main(["find-chart", str(state)]) == 6
    err = capsys.readouterr().err
    assert err.startswith("error: residual ") and err.endswith(" > 1.0e-06\n")


def test_a_tilted_two_level_seed_raises_fit_failure(monkeypatch):
    tilt_eigenvectors(monkeypatch, 0.5)
    with pytest.raises(FitFailure, match=r"^residual \S+ > 1\.0e-06$"):
        find_chart2(coset.rho2(random_chart2(make_rng(5))))


@functools.lru_cache(maxsize=None)
def round_trip_corpus():
    """(matrix, is a chart state) of 6,000 seeded states in alternation: rho2
    (every fourth) and rho3 states of random charts under random diagonal
    phases, and Hilbert-Schmidt 3x3 states G G† / Tr, most of which lie
    outside the theta box."""
    rng = make_rng(0)
    out = []
    for i in range(6000):
        if i % 2 == 0:
            state = (coset.rho2(random_chart2(rng)) if i // 2 % 4 == 0
                     else coset.rho3(random_chart3(rng)))
            phase = np.exp(1j * rng.uniform(0.0, 2 * math.pi, state.dim))
            out.append((phase[:, None] * state.mat * phase.conj()[None, :], True))
        else:
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            mat = g @ g.conj().T
            out.append((mat / np.trace(mat).real, False))
    return tuple(out)


def test_the_fit_residual_is_numpys_frobenius_norm_byte_for_byte():
    # _fit takes np.linalg.norm's own formula without its wrapper: the same
    # bytes on the round-trip corpus and on test_matcore's states
    states = [mat for mat, _ in round_trip_corpus()] + _states_to_4()
    recovered = 0
    for mat in states:
        dm = coset.as_density(mat)
        try:
            chart, res = find_chart(dm)
        except BuresGeoError:
            continue
        recovered += 1
        want = float(np.linalg.norm(metric.family(dm.dim).rho(chart).mat - dm.mat))
        assert res.hex() == want.hex(), mat
    assert recovered > 3400


def test_fail_residual_keeps_its_margin_on_the_round_trip_corpus():
    # tol.FAIL_RESIDUAL's measured law: a recovered state's residual is
    # rounding error, at worst 1.44e-15 over the 3,434 recovered states of the
    # corpus, about 7e8 below FAIL_RESIDUAL; 1 - F of each rebuild against its
    # state is at worst 3.6e-15. Every chart state is recovered; each refusal
    # is a Hilbert-Schmidt state outside the theta box
    worst = worst_infidelity = 0.0
    recovered = 0
    for mat, charted in round_trip_corpus():
        try:
            chart, res = find_chart(mat)
        except OutOfChartRange:
            assert not charted
            continue
        worst, recovered = max(worst, res), recovered + 1
        rebuilt = metric.family(len(mat)).rho(chart)
        worst_infidelity = max(worst_infidelity, 1.0 - fidelity(rebuilt, mat))
    assert recovered > 3400
    assert worst * 1e8 <= FAIL_RESIDUAL
    assert worst_infidelity <= 1e-8


@st.composite
def states_to_4(draw):
    """A state of test_bures.draw_state at n = 1 ... 4."""
    return draw_state(draw, draw(st.integers(1, 4)))


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(mat=states_to_4())
def test_find_chart_gives_a_checked_chart_or_a_typed_error(mat):
    # ROADMAP item 6's library half for the chart inverse: at every n and
    # rank, a chart whose rebuild lies within FAIL_RESIDUAL, 1 - F <= 1e-8
    # and a finite Bures distance, or a typed error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            chart, res = find_chart(mat)
        except BuresGeoError:
            return
        fam = metric.family(len(mat))
        rebuilt = fam.rho(chart)
        f, d = fidelity(rebuilt, mat), bures_distance(rebuilt, mat)
    assert isinstance(chart, fam.chart)
    assert res <= FAIL_RESIDUAL
    assert float(np.linalg.norm(rebuilt.mat - mat)) <= FAIL_RESIDUAL
    assert 1.0 - f <= 1e-8
    assert math.isfinite(d)
