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
from buresgeo.errors import DegenerateSpectrum, InvalidDensityMatrix, SingularState
from buresgeo.sampling import make_rng, random_unitary
from buresgeo.tol import DET_FLOOR, GAP, INVARIANT

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
    assert len(defined) == 24
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
def test_every_route_accepts_a_gap_of_exactly_gap(route):
    state = np.diag(EXACT_GAP).astype(complex)
    assert EXACT_GAP[1] - EXACT_GAP[2] == GAP
    assert sorted(DensityMatrix(state).eigenvalues.tolist()) == sorted(EXACT_GAP)
    if route == "pullback":
        g = metric.pullback_metric([0.0], lambda _: DensityMatrix(state), ("x",))
        assert g.g.tolist() == [[0.0]]
    elif route == "closed":
        metric._check_spectrum3(EXACT_GAP)
    else:
        _, res = recover.find_chart3(state)
        assert res <= recover.TARGET_RESIDUAL


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


def _spectrum_with_det(n: int, det: float) -> list[float]:
    """(1 - e, e) for n = 2 or (0.6, 0.4 - e, e) for n = 3, with product ``det``."""
    if n == 2:
        e = 2 * det / (1 + math.sqrt(1 - 4 * det))
        return [1 - e, e]
    q = det / 0.6
    e = 2 * q / (0.4 + math.sqrt(0.16 - 4 * q))
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
    state = np.diag(_spectrum_with_det(n, DET_FLOOR * factor)).astype(complex)
    assert (matcore.det(state).real <= DET_FLOOR) == (factor < 1)
    if factor < 1:
        with pytest.raises(SingularState, match=r"<= 1e-10"):
            call(state)
    else:
        assert math.isfinite(call(state))


def test_dittmann3_refuses_a_state_below_the_floor():
    # |rho| = 5e-11: lambda_min ~ 2e-10, where the trace form would carry a
    # relative error of up to about 2.2e-16/lambda_min against the spectral oracle
    u = random_unitary(make_rng(3), 3)
    state = u @ np.diag(_spectrum_with_det(3, 5e-11)) @ u.conj().T
    with pytest.raises(SingularState):
        bures.dittmann3_form(state, TANGENT[3])
