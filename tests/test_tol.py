"""The tolerance table, and one rule at one threshold for each numerical decision."""

import ast
import io
import math
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

from buresgeo import bures, coset, matcore, metric, recover
from buresgeo.coset import DensityMatrix, as_density, require_gap
from buresgeo.errors import DegenerateSpectrum, InvalidDensityMatrix, InvalidTangent, SingularState
from buresgeo.sampling import make_rng, random_tangent, random_unitary
from buresgeo.tol import DEFAULT_TOL, DET_FLOOR, GAP, INVARIANT, TANGENT_MAX
from test_recover import TARGET_RESIDUAL

SRC = Path(coset.__file__).resolve().parent


def test_no_e_notation_number_outside_the_table():
    # docstrings and messages are STRING tokens, so only code counts
    hits = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tol.py":
            continue
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NUMBER and re.fullmatch(r"[\d_.]*[eE][+-]?[\d_]+j?",
                                                            tok.string):
                hits.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert hits == []


def test_table_imports_nothing():
    tree = ast.parse((SRC / "tol.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_every_name_in_the_table_is_imported():
    # a name left behind by a merge guards nothing
    tree = ast.parse((SRC / "tol.py").read_text())
    defined = {target.id for node in tree.body if isinstance(node, ast.Assign)
               for target in node.targets}
    imported = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "tol":
                imported.update(alias.name for alias in node.names)
    assert len(defined) == 16
    assert sorted(defined - imported) == []


def test_gap_of_exactly_gap_passes():
    require_gap([0.0, GAP])
    require_gap((0.5, 0.5 + 2 * GAP, 0.5 + 4 * GAP))


@pytest.mark.parametrize("lam", [
    [0.0, math.nextafter(GAP, 0.0)],
    (0.7, 0.3, 0.3),
    (0.3, 0.7, 0.3 + GAP / 2),
])
def test_gap_below_gap_raises(lam):
    with pytest.raises(DegenerateSpectrum, match="eigenvalue gap"):
        require_gap(lam)


# eigenvalues 1 - 3 GAP, 2 GAP and GAP: the two small ones lie exactly GAP apart
EXACT_GAP = (1.0 - 3 * GAP, 2 * GAP, GAP)


@pytest.mark.parametrize("route", ["pullback", "closed", "recover"])
def test_every_route_accepts_a_gap_of_exactly_gap(route, monkeypatch):
    state = np.diag(EXACT_GAP).astype(complex)
    assert EXACT_GAP[1] - EXACT_GAP[2] == GAP
    assert sorted(DensityMatrix(state).eigenvalues.tolist()) == sorted(EXACT_GAP)
    if route == "pullback":
        g = metric.pullback_metric([0.0], lambda _: DensityMatrix(state), ("x",))
        assert g.g.tolist() == [[0.0]]
    elif route == "closed":
        # no chart's thetas give this spectrum exactly, so the closed route reads it
        # in place of diag_entries3 and passes its gap check; its smallest
        # eigenvalue, GAP, is also accepted. t12 and t13 are its pair ratios, and
        # t23 is taken in closed form from the thetas
        monkeypatch.setattr(metric, "diag_entries3", lambda theta1, theta2: EXACT_GAP)
        l1, l2, l3 = EXACT_GAP
        assert metric.t_coeffs(0.5, 0.6) == (
            -(l1 - l2) ** 2 / (l1 + l2), -(l1 - l3) ** 2 / (l1 + l3),
            -math.sin(0.5) ** 2 * math.cos(2 * 0.6) ** 2)
        g = metric.closed_metric3(coset.CosetChart3(0.5, 0.6, 0.3, 0.4, 0.5, 0.2, 0.1, 0.7))
        assert np.isfinite(g.g).all()
    else:
        _, res = recover.find_chart3(state)
        assert res <= TARGET_RESIDUAL


@pytest.mark.parametrize("neg", [-5e-11, -2e-10])
def test_one_psd_rule_for_states_and_square_roots(neg):
    state = np.diag([0.6, 0.4 - neg, neg]).astype(complex)
    if neg >= -INVARIANT:
        assert as_density(state).eigenvalues[0] == neg
        assert bures.fidelity(state, state) == pytest.approx(1.0, abs=1e-12)
        assert bures.bures_distance(state, state) <= 1e-6
    else:
        with pytest.raises(InvalidDensityMatrix, match="not PSD"):
            as_density(state)


def _floor_quantity(state) -> float:
    """|rho| at n = 2, e3/e2 = 2|rho|/(1 - Tr rho^2) at n = 3: what DET_FLOOR bounds."""
    det = matcore.det(state).real
    return det if len(state) == 2 else 2 * det / (1 - np.trace(state @ state).real)


def _spectrum_at_floor(n: int, value: float) -> list[float]:
    """(1 - e, e) with |rho| = ``value`` for n = 2, or (0.6, 0.4 - e, e) with
    e3/e2 = ``value`` for n = 3 (the small root of 0.6 (0.4 - e) e = value e2)."""
    if n == 2:
        e = 2 * value / (1 + math.sqrt(1 - 4 * value))
        return [1 - e, e]
    a, b, c = 0.6 - value, 0.4 * value - 0.24, 0.24 * value
    e = 2 * c / (-b + math.sqrt(b * b - 4 * a * c))
    return [0.6, 0.4 - e, e]


TANGENT = {2: np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]]),
           3: np.array([[0.2, 0.1j, 0.3], [-0.1j, -0.5, 0.2], [0.3, 0.2, 0.3]])}
FLOOR_ROUTES = {
    "dittmann2_form": (2, lambda state: bures.dittmann2_form(state, TANGENT[2])),
    "dittmann3_form": (3, lambda state: bures.dittmann3_form(state, TANGENT[3])),
    "s_coeff": (2, lambda state: metric.s_coeff(state).s12),
}


@pytest.mark.parametrize("route", FLOOR_ROUTES)
@pytest.mark.parametrize("factor", [1 - 1e-12, 1 + 1e-12], ids=["at", "above"])
def test_one_determinant_floor(route, factor):
    n, call = FLOOR_ROUTES[route]
    state = np.diag(_spectrum_at_floor(n, DET_FLOOR * factor)).astype(complex)
    assert (_floor_quantity(state) <= DET_FLOOR) == (factor < 1)
    if factor < 1:
        with pytest.raises(SingularState, match=r"is not above 2\.2e-08$"):
            call(state)
    else:
        assert math.isfinite(call(state))


@pytest.mark.parametrize("n, seed", [(2, 5), (3, 6)])
def test_trace_forms_just_above_the_floor_stay_inside_the_tolerance(n, seed):
    # the floor is set from the error law 2.2e-16/lambda_min, so that the trace
    # forms keep a margin to DEFAULT_TOL on every state they accept: 20
    # Haar-rotated states at 1.05x the floor, 10 tangents each
    form = bures.dittmann2_form if n == 2 else bures.dittmann3_form
    rng = make_rng(seed)
    for _ in range(20):
        u = random_unitary(rng, n)
        state = as_density(u @ np.diag(_spectrum_at_floor(n, 1.05 * DET_FLOOR)) @ u.conj().T)
        for _ in range(10):
            d = random_tangent(rng, n)
            hub = bures.hubner_form(state, d, d)
            assert abs(form(state, d) - hub) <= DEFAULT_TOL / 10 * hub


def test_dittmann3_refuses_a_state_below_the_floor():
    # e3/e2 = 5e-11: lambda_min ~ 5e-11, where the trace form would carry a
    # relative error of up to about 2.2e-16/lambda_min against the spectral oracle
    u = random_unitary(make_rng(3), 3)
    state = u @ np.diag(_spectrum_at_floor(3, 5e-11)) @ u.conj().T
    assert _floor_quantity(state) <= DET_FLOOR
    with pytest.raises(SingularState, match=r"e3/e2"):
        bures.dittmann3_form(state, TANGENT[3])


def test_dittmann3_accepts_two_small_eigenvalues_above_the_floor():
    # lambda = (1 - 2e-5, 1.2e-5, 7.9e-6): |rho| = 9.6e-11 lies under the
    # floor, but e3/e2 ~ 4.8e-6 tracks lambda_min, and the trace form is accurate
    chart = coset.CosetChart3(math.asin(math.sqrt(2e-5)), 0.68, 0.3, 0.4, 0.5, 0.2, 0.1, 0.7)
    state = coset.rho3(chart)
    assert matcore.det(state.mat).real <= DET_FLOOR < _floor_quantity(state.mat)
    report = metric.validate(chart)
    assert report.dittmann_max_rel_dev <= 1e-9
    rng = make_rng(4)
    for _ in range(20):
        d = random_tangent(rng, 3)
        hub = bures.hubner_form(state, d, d)
        assert abs(bures.dittmann3_form(state, d) - hub) <= 1e-9 * abs(hub)


# every part 0 or +-1: scaled by TANGENT_MAX, the nonzero parts lie exactly at the bound
BOUND_TANGENT = {2: np.array([[1, 1 + 1j], [1 - 1j, -1]]),
                 3: np.array([[1, 1j, 1 - 1j], [-1j, -1, 1 + 1j], [1 + 1j, 1 - 1j, 0]])}
BOUND_ROUTES = {
    "hubner_form 2": (2, lambda state, d: bures.hubner_form(state, d, d)),
    "hubner_form 3": (3, lambda state, d: bures.hubner_form(state, d, d)),
    "dittmann2_form": (2, bures.dittmann2_form),
    "dittmann3_form": (3, bures.dittmann3_form),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("route", BOUND_ROUTES)
def test_one_tangent_bound(route):
    # tol.TANGENT_MAX's law: on a state just above the determinant floor, a
    # tangent with every part at the bound gives a finite value, without an
    # overflow warning; one part at the next float beyond is refused
    n, call = BOUND_ROUTES[route]
    state = np.diag(_spectrum_at_floor(n, DET_FLOOR * (1 + 1e-12))).astype(complex)
    d = TANGENT_MAX * BOUND_TANGENT[n]
    assert math.isfinite(call(state, d))
    d[1, 1] = complex(-1.0, 0.0) * np.nextafter(TANGENT_MAX, math.inf)
    with pytest.raises(InvalidTangent, match=r"beyond 2\.0e\+143$"):
        call(state, d)
