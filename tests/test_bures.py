import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buresgeo import coset, matcore, metric
from buresgeo.bures import (
    bures_distance,
    dittmann2_form,
    dittmann3_form,
    fidelity,
    hubner_form,
)
from buresgeo.coset import CosetChart2, CosetChart3
from buresgeo.errors import (
    BuresGeoError,
    DegenerateSupport,
    DimensionMismatch,
    InvalidDensityMatrix,
    InvalidTangent,
    PureState,
    SingularState,
)
from buresgeo.metric import s_coeff
from buresgeo.recover import find_chart
from buresgeo.tol import INVARIANT
from buresgeo.sampling import (
    make_rng,
    random_chart2,
    random_chart3,
    random_density,
    random_tangent,
    random_unitary,
)


def classical_fidelity(p, q):
    """Independent oracle for commuting states: (sum sqrt(p_i q_i))^2."""
    return float(np.sum(np.sqrt(np.asarray(p) * np.asarray(q)))) ** 2


def diag_rho(*entries):
    return np.diag(entries).astype(complex)


# ---------------------------------------------------------------------------
# fidelity / distance
# ---------------------------------------------------------------------------

def test_fidelity_self_is_one():
    rng = make_rng(0)
    for n in (2, 3):
        rho = random_density(rng, n)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal_pure():
    assert fidelity(diag_rho(1.0, 0.0), diag_rho(0.0, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_commuting_case():
    f = fidelity(diag_rho(0.5, 0.5), diag_rho(0.25, 0.75))
    assert f == pytest.approx(classical_fidelity([0.5, 0.5], [0.25, 0.75]), abs=1e-12)
    assert f == pytest.approx(0.93301270, abs=1e-8)


def test_fidelity_commuting_reduction_random():
    rng = make_rng(1)
    for n in (2, 3):
        for _ in range(50):
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            f = fidelity(diag_rho(*p), diag_rho(*q))
            assert abs(f - classical_fidelity(p, q)) <= 1e-12


def test_fidelity_symmetric():
    rng = make_rng(2)
    for n in (2, 3):
        for _ in range(50):
            a, b = random_density(rng, n), random_density(rng, n)
            assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-10


def test_fidelity_unitary_invariance():
    rng = make_rng(3)
    for n in (2, 3):
        for _ in range(50):
            a, b = random_density(rng, n), random_density(rng, n)
            u = random_unitary(rng, n)
            fa = fidelity(a, b)
            fb = fidelity(coset.DensityMatrix(u @ a.mat @ u.conj().T),
                          coset.DensityMatrix(u @ b.mat @ u.conj().T))
            assert abs(fa - fb) <= 1e-10


def test_fidelity_range_and_dimension_error():
    rng = make_rng(4)
    for _ in range(100):
        a, b = random_density(rng, 3), random_density(rng, 3)
        assert 0.0 <= fidelity(a, b) <= 1.0
    with pytest.raises(DimensionMismatch):
        fidelity(diag_rho(1.0, 0.0), diag_rho(1.0, 0.0, 0.0))


def _rotated(seed: int, spectrum) -> np.ndarray:
    u = random_unitary(make_rng(seed), 3)
    return (u * np.asarray(spectrum)) @ u.conj().T


@pytest.mark.parametrize("spectrum", [(0.6, 0.4, 0.0), (1.0, 0.0, 0.0)], ids=["rank2", "pure"])
def test_fidelity_self_is_one_on_rank_deficient_states(spectrum):
    # rounding leaves eigenvalues of ~1e-17 where the spectrum has zeros; a
    # second square root of the product state would lift them to ~3e-9 each
    for s in range(200):
        rho = _rotated(s, spectrum)
        assert abs(fidelity(rho, rho) - 1.0) <= 1e-12


def test_fidelity_of_an_accepted_state_with_negative_rounding_eigenvalues_is_one():
    # five eigenvalues of -0.99e-10, inside the PSD band of INVARIANT, and trace
    # 1 + 0.99e-10: the positive part has trace 1 + 5.94e-10, so the raw value is
    # (1 + 5.94e-10)^2 = 1.0000000012, above 1 by more than any fixed band of 1e-9
    lam = np.array([1.0 + 6 * 0.99e-10] + [-0.99e-10] * 5)
    u = random_unitary(make_rng(6), 6)
    for state in (np.diag(lam).astype(complex), (u * lam) @ u.conj().T):
        assert fidelity(state, state) == 1.0


def test_fidelity_of_pure_states_is_the_squared_overlap():
    vecs = [random_unitary(make_rng(s), 3)[:, 0] for s in range(201)]
    for psi, phi in zip(vecs, vecs[1:]):
        f = fidelity(np.outer(psi, psi.conj()), np.outer(phi, phi.conj()))
        assert abs(f - abs(np.vdot(psi, phi)) ** 2) <= 1e-14


def test_a_fidelity_and_distance_pair_forms_the_rebuilt_states_root_once(monkeypatch):
    # the recover round trip: find_chart, rebuild, then fidelity and
    # bures_distance of the rebuilt DensityMatrix against the input array,
    # which each call checks afresh, so its factor is formed twice
    calls = []
    form = matcore.SpectralDecomposition.root.func
    root = functools.cached_property(lambda spec: calls.append(spec) or form(spec))
    root.__set_name__(matcore.SpectralDecomposition, "root")
    monkeypatch.setattr(matcore.SpectralDecomposition, "root", root)
    state = coset.rho3(random_chart3(make_rng(8))).mat
    chart, _ = find_chart(state)
    rebuilt = coset.rho3(chart)
    f = fidelity(rebuilt, state)
    assert bures_distance(rebuilt, state) == math.sqrt(max(2.0 - 2.0 * math.sqrt(f), 0.0))
    assert sum(spec is rebuilt.spectral for spec in calls) == 1
    assert len(calls) == 3


@st.composite
def state_pairs(draw):
    """Two n x n matrices G G† / Tr G G† at one n in {2, 3}, each G n x r
    with r = 1 ... n (so every rank), entries from subnormal to 1, some
    columns repeated; the pair may be one state twice."""
    n = draw(st.sampled_from([2, 3]))
    parts = st.floats(-1.0, 1.0) | st.sampled_from([0.0, 5e-324, 1e-160, 1e-8])

    def state():
        r = draw(st.integers(1, n))
        g = np.array([[complex(draw(parts), draw(parts)) for _ in range(r)] for _ in range(n)])
        if r > 1 and draw(st.booleans()):
            g[:, -1] = g[:, 0]
        mat = g @ g.conj().T
        return mat / np.trace(mat).real

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a zero G divides 0 by 0: a nan matrix, refused
        a = state()
        return a, (a if draw(st.booleans()) else state())


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(pair=state_pairs())
def test_fidelity_over_the_accepted_domain_is_symmetric_and_one_on_the_diagonal(pair):
    # ROADMAP item 6's library half: a finite F in [0, 1], symmetric and 1 on
    # a state and itself to 1e-14 (3,000 random states measured 1.1e-15 and
    # 4.0e-15), or a typed error
    a, b = pair
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ra, rb = coset.DensityMatrix(a), coset.DensityMatrix(b)
            fab, fba, faa = fidelity(ra, rb), fidelity(rb, ra), fidelity(ra, ra)
        except BuresGeoError:
            return
    for f in (fab, fba, faa):
        assert math.isfinite(f) and 0.0 <= f <= 1.0
    assert abs(fab - fba) <= 1e-14
    assert abs(faa - 1.0) <= 1e-14


def test_bures_distance_examples():
    rho = diag_rho(0.5, 0.5)
    assert bures_distance(rho, rho) == pytest.approx(0.0, abs=1e-9)
    assert bures_distance(diag_rho(1.0, 0.0), diag_rho(0.0, 1.0)) == pytest.approx(
        math.sqrt(2), abs=1e-12)
    # derived from the commuting-case fidelity oracle
    f = classical_fidelity([0.5, 0.5], [0.25, 0.75])
    expected = math.sqrt(2 - 2 * math.sqrt(f))
    assert bures_distance(diag_rho(0.5, 0.5), diag_rho(0.25, 0.75)) == pytest.approx(
        expected, abs=1e-12)
    assert expected == pytest.approx(0.261052, abs=1e-5)


def test_bures_distance_bounds_and_triangle():
    rng = make_rng(5)
    for _ in range(1000):
        n = 2 if rng.uniform() < 0.5 else 3
        a, b, c = (random_density(rng, n) for _ in range(3))
        dab, dbc, dac = bures_distance(a, b), bures_distance(b, c), bures_distance(a, c)
        for d in (dab, dbc, dac):
            assert 0.0 <= d <= math.sqrt(2) + 1e-12
        assert dab + dbc - dac >= -1e-9


# ---------------------------------------------------------------------------
# Hubner form
# ---------------------------------------------------------------------------

def test_hubner_zero_tangent():
    rho = diag_rho(0.7, 0.3)
    z = np.zeros((2, 2), dtype=complex)
    assert hubner_form(rho, z, z) == 0.0


def test_hubner_theta_direction_is_unit():
    # rho = diag(cos^2 t, sin^2 t), drho = d rho / d t: the form equals 1
    for t in (0.2, 0.5, 0.7):
        rho = diag_rho(math.cos(t) ** 2, math.sin(t) ** 2)
        drho = np.diag([-math.sin(2 * t), math.sin(2 * t)]).astype(complex)
        assert hubner_form(rho, drho, drho) == pytest.approx(1.0, abs=1e-12)


def test_hubner_bilinear():
    rng = make_rng(6)
    for n in (2, 3):
        for _ in range(50):
            rho = random_density(rng, n)
            d1, d1p, d2 = (random_tangent(rng, n) for _ in range(3))
            a = rng.uniform(-2, 2)
            lhs = hubner_form(rho, a * d1 + d1p, d2)
            rhs = a * hubner_form(rho, d1, d2) + hubner_form(rho, d1p, d2)
            assert abs(lhs - rhs) <= 1e-10


def test_hubner_symmetric_psd_gram():
    rng = make_rng(7)
    for n in (2, 3):
        rho = random_density(rng, n)
        basis = [random_tangent(rng, n) for _ in range(n * n - 1)]
        gram = np.array([[hubner_form(rho, a, b) for b in basis] for a in basis])
        assert np.max(np.abs(gram - gram.T)) <= 1e-12
        assert np.linalg.eigvalsh(gram).min() >= -1e-12


def test_hubner_nonnegative_on_diagonal():
    rng = make_rng(8)
    for _ in range(100):
        rho = random_density(rng, 3)
        d = random_tangent(rng, 3)
        assert hubner_form(rho, d, d) >= -1e-12


def test_hubner_degenerate_support():
    rho = coset.DensityMatrix(diag_rho(1.0, 0.0))
    leaving = np.diag([1.0, -1.0]).astype(complex)  # couples to the null space
    with pytest.raises(DegenerateSupport):
        hubner_form(rho, leaving, leaving)


def test_hubner_degenerate_support_names_the_first_coupled_pair():
    # the pair sum runs i-major: on a rank-one state the pairs (0,0), (0,1),
    # (1,0), (1,1) are dropped, and sigma_x on the null space first couples
    # to (0,1); on a rank-two state only (0,0) is dropped
    rho = coset.DensityMatrix(diag_rho(0.0, 0.0, 1.0))
    sx = np.zeros((3, 3), dtype=complex)
    sx[0, 1] = sx[1, 0] = 1.0
    with pytest.raises(DegenerateSupport, match=r"^eigenpair \(0,1\) has "):
        hubner_form(rho, sx, sx)
    rho = coset.DensityMatrix(diag_rho(0.0, 0.4, 0.6))
    leaving = diag_rho(1.0, -1.0, 0.0)
    with pytest.raises(DegenerateSupport, match=r"^eigenpair \(0,0\) has "):
        hubner_form(rho, leaving, leaving)


@pytest.mark.parametrize("spectrum, dropped", [
    ((0.0, 0.0, 1.0), [(0, 0), (0, 1), (1, 0), (1, 1)]),
    ((0.0, 0.4, 0.6), [(0, 0)]),
    ((0.2, 0.3, 0.5), []),
    ((0.0, 1.0), [(0, 0)]),
])
def test_pair_tables_split_the_i_major_table_at_eps_spec(spectrum, dropped):
    # hubner_form sums the kept pairs and checks the dropped ones, each list
    # i-major, so the first coupled pair it names is the one the one-pass
    # loop named
    kept_pairs, dropped_pairs = coset.DensityMatrix(diag_rho(*spectrum)).spectral.pairs
    n = len(spectrum)
    table = [(i, j, spectrum[i] + spectrum[j]) for i in range(n) for j in range(n)]
    assert dropped_pairs == [p for p in table if p[:2] in dropped]
    assert kept_pairs == [p for p in table if p[:2] not in dropped]


def test_hubner_support_restriction_tolerates_silent_zero():
    # a tangent that does not touch the null space is fine on a singular state
    rho = coset.DensityMatrix(diag_rho(1.0, 0.0))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    val = hubner_form(rho, sx, sx)  # (1,2)+(2,1) terms, lambda sums = 1
    assert val == pytest.approx(1.0, abs=1e-12)


def hubner_reference(rho, d1, d2):
    """0.5 * sum_ij Re(X1_ij X2_ji) / (lambda_i + lambda_j) as one contraction,
    X = V† d V from numpy's eigh; every pair kept (full-rank states only).
    Returns the value and the same sum over absolute terms, the scale that
    rounding errors are relative to when the terms cancel."""
    w, v = np.linalg.eigh(rho)
    x1, x2 = (v.conj().T @ d @ v for d in (d1, d2))
    terms = np.einsum("ij,ji,ij->ij", x1, x2, 1.0 / (w[:, None] + w[None, :])).real
    return 0.5 * terms.sum(), 0.5 * np.abs(terms).sum()


def hubner_pair_loop(rho, d1, d2):
    """The Hubner pair sum as a nested loop over the eigenvalues, i-major:
    the same operations in the same order as hubner_form (full-rank states)."""
    w = rho.eigenvalues.tolist()
    v = rho.spectral.eigenvectors
    x1, x2 = ((v.conj().T @ d @ v).tolist() for d in (d1, d2))
    total = 0.0
    for i, wi in enumerate(w):
        for j, wj in enumerate(w):
            total += (x1[i][j] * x2[j][i]).real / (wi + wj)
    return 0.5 * total


def test_hubner_matches_vectorised_reference():
    rng = make_rng(13)
    for n in (2, 3):
        for _ in range(200):
            rho = random_density(rng, n)
            g1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            g2 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            for d1, d2 in ((g1, g2), (g1, g1), (random_tangent(rng, n), g2)):
                ref, scale = hubner_reference(rho.mat, d1, d2)
                val = hubner_form(rho, d1, d2)
                assert abs(val - ref) <= 1e-14 * scale
                assert val == hubner_pair_loop(rho, d1, d2)


def test_hubner_drops_null_pair_of_rank_deficient_state():
    # rank 2 of 3, tangent inside the support: the (null, null) pair has
    # lambda_i + lambda_j ~ 0, is dropped without raising, and the rest of
    # the sum is the 2-level form on the support
    rng = make_rng(14)
    u = random_unitary(rng, 3)
    rho = coset.DensityMatrix(u @ diag_rho(0.6, 0.4, 0.0) @ u.conj().T)
    sub = random_tangent(rng, 2)
    inside = np.zeros((3, 3), dtype=complex)
    inside[:2, :2] = sub
    d = u @ inside @ u.conj().T
    val = hubner_form(rho, d, d)
    assert val == pytest.approx(hubner_reference(diag_rho(0.6, 0.4), sub, sub)[0], rel=1e-12)


def test_dittmann2_zero_tangent():
    assert dittmann2_form(diag_rho(0.6, 0.4), np.zeros((2, 2), dtype=complex)) == 0.0


def test_dittmann2_examples_match_hubner():
    rho = coset.DensityMatrix(diag_rho(0.5, 0.5))
    d = np.diag([1.0, -1.0]).astype(complex)
    assert dittmann2_form(rho, d) == pytest.approx(hubner_form(rho, d, d), rel=1e-12)
    rho = coset.DensityMatrix(diag_rho(0.75, 0.25))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    assert dittmann2_form(rho, sx) == pytest.approx(hubner_form(rho, sx, sx), rel=1e-12)


def test_dittmann2_equals_hubner_random():
    rng = make_rng(9)
    for _ in range(1000):
        rho = random_density(rng, 2)
        d = random_tangent(rng, 2)
        hub = hubner_form(rho, d, d)
        assert abs(dittmann2_form(rho, d) - hub) <= 1e-9 * abs(hub)


def test_dittmann2_singular_state():
    with pytest.raises(SingularState):
        dittmann2_form(diag_rho(1.0, 0.0), np.zeros((2, 2), dtype=complex))


def test_dittmann3_zero_tangent():
    assert dittmann3_form(diag_rho(0.5, 0.3, 0.2), np.zeros((3, 3), dtype=complex)) == 0.0


def test_dittmann3_maximally_mixed_matches_hubner():
    rng = make_rng(10)
    rho = coset.DensityMatrix(np.eye(3, dtype=complex) / 3)
    for _ in range(20):
        d = random_tangent(rng, 3)
        hub = hubner_form(rho, d, d)
        assert abs(dittmann3_form(rho, d) - hub) <= 1e-9 * abs(hub)


def test_dittmann3_equals_hubner_random():
    rng = make_rng(11)
    for _ in range(1000):
        rho = random_density(rng, 3)
        d = random_tangent(rng, 3)
        hub = hubner_form(rho, d, d)
        assert abs(dittmann3_form(rho, d) - hub) <= 1e-9 * abs(hub)


def test_dittmann3_guards():
    with pytest.raises(SingularState):
        dittmann3_form(diag_rho(0.5, 0.5, 0.0), np.zeros((3, 3), dtype=complex))
    with pytest.raises(PureState):
        dittmann3_form(diag_rho(1.0 - 2e-13, 1e-13, 1e-13),
                       np.zeros((3, 3), dtype=complex))


def test_dittmann3_cached_invariants_match_fresh_states():
    rng = make_rng(15)
    for _ in range(50):
        rho = random_density(rng, 3)
        d1, d2 = random_tangent(rng, 3), random_tangent(rng, 3)
        cached = (dittmann3_form(rho, d1), dittmann3_form(rho, d2))
        fresh = tuple(dittmann3_form(coset.DensityMatrix(rho.mat.copy()), d)
                      for d in (d1, d2))
        assert cached == fresh
        assert dittmann3_form(rho.mat, d1) == cached[0]  # ndarray input, as_density path


def test_dittmann3_failed_check_caches_nothing():
    zero = np.zeros((3, 3), dtype=complex)
    near_pure = coset.DensityMatrix(diag_rho(1.0 - 2e-13, 1e-13, 1e-13))
    singular = coset.DensityMatrix(diag_rho(0.5, 0.5, 0.0))
    for rho, err in ((near_pure, PureState), (singular, SingularState)):
        for _ in range(2):
            with pytest.raises(err):
                dittmann3_form(rho, zero)


def numpy_dittmann3_form(rho, drho):
    """bures.dittmann3_form as it read with numpy: the full products
    D - rho D, D - rho^{-1} D and their squares, summed before one trace.
    Returns the value and the same form over entrywise absolute values, with
    |D| + |M| |D| for each D - M D: the scale that rounding errors are
    relative to when the products cancel (rho^{-1} is large near the edge)."""
    m = rho.mat
    d = np.asarray(drho, dtype=complex)
    m2 = m @ m
    tr3 = np.trace(m2 @ m).real
    detr = matcore.det(m).real
    coef = 3.0 / (1.0 - tr3)
    rho_inv = matcore.inv(m)
    q1 = d - m @ d
    q2 = d - rho_inv @ d
    val = np.trace(d @ d + coef * (q1 @ q1 + detr * (q2 @ q2))).real

    def abs_trace_square(x):
        return float((x * x.T).sum())

    ad = np.abs(d)
    scale = abs_trace_square(ad) + coef * (abs_trace_square(ad + np.abs(m) @ ad)
                                           + detr * abs_trace_square(ad + np.abs(rho_inv) @ ad))
    return 0.25 * float(val), 0.25 * scale


# The scalar form sums its products in another order than numpy's matmul, so
# the two differ in the last bits: relative to the absolute scale of
# numpy_dittmann3_form, by at most 6.6e-16 on 40,000 seeded rho3 states with a
# random Hermitian tangent, 6,000 of them also with validate's 8 coordinate
# tangents (plain relative differences reached 3.7e-14).
DITTMANN3_AGREE = 2e-15


def test_scalar_dittmann3_matches_the_numpy_products():
    rng = make_rng(30)
    fam = metric.FAMILIES[3]
    for k in range(2000):
        chart = random_chart3(rng)
        rho = coset.rho3(chart)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        tangents = [(g + g.conj().T) / 2]
        if k < 200:  # the tangents validate compares along
            pt = chart.values()
            for i in range(len(pt)):
                t = metric._central_diff(fam.build, pt, i)
                tangents.append(t / np.linalg.norm(t))
        for t in tangents:
            want, scale = numpy_dittmann3_form(rho, t)
            assert abs(dittmann3_form(rho, t) - want) <= DITTMANN3_AGREE * scale


def test_state_keeps_a_private_read_only_matrix():
    original = np.diag([0.5, 0.3, 0.2]).astype(complex)
    d = np.diag([0.1, -0.05, -0.05]).astype(complex)
    fresh = coset.DensityMatrix(original.copy())
    want = (hubner_form(fresh, d, d), dittmann3_form(fresh, d))
    changed = np.diag([0.6, 0.3, 0.1]).astype(complex)
    assert hubner_form(coset.DensityMatrix(changed), d, d) != want[0]
    # the caller's array changes before any cache exists, and after both do
    for calls_before in (False, True):
        caller = original.copy()
        rho = coset.DensityMatrix(caller)
        if calls_before:
            assert (hubner_form(rho, d, d), dittmann3_form(rho, d)) == want
        caller[:] = changed
        assert np.array_equal(rho.mat, original)
        assert (hubner_form(rho, d, d), dittmann3_form(rho, d)) == want
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 0.6
        assert np.array_equal(rho.mat, original)


def test_hubner_tangent_of_another_dimension():
    t = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(DimensionMismatch):
        hubner_form(diag_rho(0.5, 0.3, 0.2), t, t)


def test_dittmann_dimension_errors():
    with pytest.raises(DimensionMismatch):
        dittmann2_form(diag_rho(0.5, 0.3, 0.2), np.zeros((3, 3), dtype=complex))
    with pytest.raises(DimensionMismatch):
        dittmann3_form(diag_rho(0.5, 0.5), np.zeros((2, 2), dtype=complex))


@pytest.mark.parametrize("form, n", [("hubner", 2), ("hubner", 3),
                                      ("dittmann2", 2), ("dittmann3", 3)])
@pytest.mark.parametrize("shape", ["other n", "1-D"])
def test_a_tangent_of_the_wrong_shape_is_refused_by_every_form(form, n, shape):
    # one rule (matcore.as_tangent) for all three forms and the pullback's
    # hand-over: DimensionMismatch, exit 4, also for a read-only tangent and a list
    bad = np.zeros((5 - n, 5 - n) if shape == "other n" else (n,), dtype=complex)
    frozen = bad.copy()
    frozen.flags.writeable = False
    rho, good = _state(n), random_tangent(make_rng(9), n)
    if form == "hubner":
        calls = [(hubner_form, (rho, *pair))
                 for t in (bad, frozen, bad.tolist()) for pair in ((t, t), (t, good), (good, t))]
        calls += [(rho.spectral._hand, ([good, t],)) for t in (bad, frozen, bad.tolist())]
    else:
        fn = dittmann2_form if form == "dittmann2" else dittmann3_form
        calls = [(fn, (rho, t)) for t in (bad, frozen, bad.tolist())]
    for fn, args in calls + calls:
        with pytest.raises(DimensionMismatch) as exc:
            fn(*args)
        assert exc.value.exit_code == 4


# ---------------------------------------------------------------------------
# non-finite and unreadable tangents
# ---------------------------------------------------------------------------

# input numpy cannot read as a complex array at all
UNREADABLE = {"str": "abc", "ragged": [[1, 2, 3], [4, 5]], "object": object()}


def _bad_tangent(kind, n):
    if kind in UNREADABLE:
        return UNREADABLE[kind]
    if kind == "nan":
        return np.full((n, n), np.nan, dtype=complex)
    if kind in ("+inf", "-inf"):
        return np.diag([float(kind)] * n).astype(complex)
    good = random_tangent(make_rng(8), n)
    good[n - 1, 0] = complex(0.1, np.inf) if kind == "one inf" else np.nan
    return good


def _state(n):
    chart = (random_chart2 if n == 2 else random_chart3)(make_rng(7))
    return (coset.rho2 if n == 2 else coset.rho3)(chart)


@pytest.mark.parametrize("kind", ["nan", "+inf", "-inf", "one nan", "one inf", *UNREADABLE])
@pytest.mark.parametrize("form, n", [("hubner", 2), ("hubner", 3),
                                      ("dittmann2", 2), ("dittmann3", 3)])
def test_non_finite_tangent_is_refused_before_any_product(form, n, kind):
    # every form raises the typed error before any product, where a NaN or
    # inf entry would give nan or numpy's invalid-value warning and
    # unreadable input numpy's untyped ValueError or TypeError; also for a
    # read-only tangent, the pullback's hand-over and on a repeated call
    rho = _state(n)
    good = random_tangent(make_rng(9), n)
    bad = _bad_tangent(kind, n)
    if isinstance(bad, np.ndarray):
        frozen = bad.copy()
        frozen.flags.writeable = False
        tangents, listed = [bad, frozen], [bad.tolist()]
    else:
        tangents, listed = [bad], []
    if form == "hubner":
        calls = [(hubner_form, (rho, *pair))
                 for t in tangents for pair in ((t, t), (t, good), (good, t))]
        calls += [(rho.spectral._hand, ([good, t],)) for t in tangents + listed]
    else:
        fn = dittmann2_form if form == "dittmann2" else dittmann3_form
        calls = [(fn, (rho, t)) for t in tangents + listed]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, args in calls + calls:
            with pytest.raises(InvalidTangent) as exc:
                fn(*args)
            assert exc.value.exit_code == 4


# ---------------------------------------------------------------------------
# projections into the eigenbasis: fresh for a caller's tangent, shared only
# for the tangents the pullback hands over
# ---------------------------------------------------------------------------

def test_hubner_sees_a_tangent_changed_in_place():
    # a caller's tangent is projected again on each call, whatever its flags,
    # so a change between calls is never missed: a writable array, a
    # read-only view of a writable array, a list, and an owning array frozen,
    # read, made writable, changed and frozen again
    rho = _state(3)
    first, second = random_tangent(make_rng(10), 3), random_tangent(make_rng(11), 3)
    want = [hubner_form(_state(3), t, t) for t in (first, second)]
    assert want[0] != want[1]

    writable = first.copy()
    base = np.stack([first, first])
    view = base[0]
    view.flags.writeable = False  # read-only, but its base is not
    rows = first.tolist()
    frozen = first.copy()
    frozen.flags.writeable = False
    for tangent in (writable, view, rows, frozen):
        assert hubner_form(rho, tangent, tangent) == want[0]
        assert hubner_form(rho, tangent, first) == want[0]
        if tangent is rows:
            rows[:] = second.tolist()
        elif tangent is frozen:
            frozen.flags.writeable = True
            frozen[...] = second
            frozen.flags.writeable = False
        else:
            np.copyto(base[0] if tangent is view else writable, second)
        assert hubner_form(rho, tangent, tangent) == want[1]
        assert hubner_form(rho, tangent, second.copy()) == want[1]


def test_the_pullback_projects_its_tangents_once_per_state(monkeypatch):
    # every projection checks its tangent first, so as_tangent counts them
    checked, handed = [], []
    as_tangent, hand = matcore.as_tangent, matcore.SpectralDecomposition._hand

    def counting(d, n):
        checked.append(id(d))
        return as_tangent(d, n)

    def handing(self, tangents):
        handed.append(len(tangents))
        return hand(self, tangents)

    monkeypatch.setattr(matcore, "as_tangent", counting)
    monkeypatch.setattr(matcore.SpectralDecomposition, "_hand", handing)
    rng = make_rng(12)
    for chart, pullback in [(random_chart3, metric.pullback_metric3),
                            (random_chart2, metric.pullback_metric2)]:
        for _ in range(2):
            checked.clear(), handed.clear()
            d = len(pullback(chart(rng)).ordering)
            # one hand-over of the d tangents, none projected again by the
            # d(d + 1)/2 Hubner calls
            assert handed == [d] and len(checked) == d
    # a caller's tangent is projected on every call, frozen, writable, a
    # view or a list
    rho = _state(3)
    frozen, writable = random_tangent(rng, 3), random_tangent(rng, 3)
    frozen.flags.writeable = False
    view = np.stack([writable, writable])[1]
    handed.clear()
    for t in (frozen, writable, view, writable.tolist()):
        checked.clear()
        values = [hubner_form(rho, t, t) for _ in range(3)]
        assert checked == [id(t)] * 3
        assert values == [hubner_form(rho, np.array(t), np.array(t))] * 3
    assert handed == []
    # a builder that returns one state: each hand-over replaces the last, so
    # its spectrum keeps d entries however many pullbacks it serves
    for _ in range(3):
        metric.pullback_metric([0.1, 0.2], lambda p: rho, ("x", "y"))
    assert handed == [2] * 3 and len(rho.spectral._handed) == 2


# ---------------------------------------------------------------------------
# positivity is checked when a state is built, so every route refuses a
# non-PSD matrix alike, whether given the ndarray or a DensityMatrix of it
# ---------------------------------------------------------------------------

NOT_PSD = r"^not PSD: min eigenvalue -2\.000e-01 < -1\.0e-10$"


@pytest.mark.parametrize("route, entries", [
    (lambda rho: dittmann3_form(rho, random_tangent(make_rng(0), 3)), (0.7, 0.5, -0.2)),
    (lambda rho: dittmann3_form(rho, random_tangent(make_rng(0), 3)), (1.3, -0.1, -0.2)),
    (lambda rho: dittmann2_form(rho, random_tangent(make_rng(0), 2)), (1.2, -0.2)),
    (s_coeff, (1.2, -0.2)),
], ids=["dittmann3-one-negative", "dittmann3-two-negative", "dittmann2", "s_coeff"])
@pytest.mark.parametrize("wrap", [np.asarray, coset.DensityMatrix],
                         ids=["ndarray", "DensityMatrix"])
def test_a_non_psd_state_is_refused_as_not_psd_by_every_route(route, entries, wrap):
    # these raised SingularState or PureState (exit 5) when the state came as a
    # DensityMatrix, whose positivity was checked only once its spectrum was read
    with pytest.raises(InvalidDensityMatrix, match=NOT_PSD) as exc:
        route(wrap(diag_rho(*entries)))
    assert exc.value.exit_code == 4


REFERENCE_STATES = {2: coset.rho2(CosetChart2(0.4, 0.3, 0.2)),
                    3: coset.rho3(CosetChart3(0.5, 0.6, 0.3, 0.4, 0.5, 0.2, 0.1, 0.7))}


@st.composite
def hermitian_unit_trace(draw):
    """(m, tangent): m = U diag(lam) U† with lam summing to 1, PSD or not
    (zero and just-negative eigenvalues included), U the identity or
    Haar-random, and a random tangent of the same size."""
    n = draw(st.sampled_from([2, 3]))
    lam = [draw(st.one_of(st.floats(-0.3, 1.0),
                          st.sampled_from([0.0, 0.5, -INVARIANT, -2 * INVARIANT])))
           for _ in range(n - 1)]
    lam.append(1.0 - sum(lam))
    rng = make_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = np.eye(n) if draw(st.booleans()) else random_unitary(rng, n)
    return u @ np.diag(lam) @ u.conj().T, random_tangent(rng, n)


def _outcome(call):
    """("ok", repr of the value) or ("raised", the exception type)."""
    try:
        return "ok", repr(call())
    except Exception as exc:  # the type is what is compared
        return "raised", type(exc)


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=hermitian_unit_trace())
def test_every_route_treats_a_matrix_and_its_density_matrix_alike(case):
    mat, d = case
    n = len(mat)
    routes = [lambda rho: hubner_form(rho, d, d),
              lambda rho: (dittmann2_form if n == 2 else dittmann3_form)(rho, d),
              lambda rho: fidelity(rho, REFERENCE_STATES[n]),
              find_chart]
    if n == 2:
        routes.append(s_coeff)
    for route in routes:
        want = _outcome(lambda: route(mat))
        assert _outcome(lambda: route(coset.DensityMatrix(mat))) == want, (route, want)
