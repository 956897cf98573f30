"""The tolerance table and the one eigenvalue-gap rule."""

import ast
import io
import math
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

from buresgeo import coset, metric, recover
from buresgeo.coset import DensityMatrix, require_gap
from buresgeo.errors import DegenerateSpectrum
from buresgeo.tol import GAP

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
