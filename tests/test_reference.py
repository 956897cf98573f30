"""The closed tensors against the 40-digit reference of mp_reference.py."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import mp_reference
from buresgeo import coset, metric
from buresgeo.coset import THETA1_MAX, THETA2_MAX, THETA2_MIN, CosetChart2, CosetChart3
from buresgeo.sampling import make_rng, random_chart2, random_chart3
from buresgeo.tol import SERIES_CUTOFF

REL = 1e-14


def chart3(theta1=0.5, theta2=0.65, beta=1.2, chi=0.7):
    """A 3-level chart whose (beta1, beta2) has length ``beta`` and direction ``chi``."""
    return CosetChart3(theta1, theta2, alpha=0.3, phi=0.4, beta1=beta * math.cos(chi),
                       beta2=beta * math.sin(chi), psi1=0.9, psi2=-1.1)


EDGES3 = {
    "beta-below-series-cutoff": chart3(beta=SERIES_CUTOFF / 2),
    "beta-near-pi": chart3(beta=math.pi - 1e-6),
    "theta2-min": chart3(theta2=THETA2_MIN),
    # lambda2 - lambda3 = sin^2 theta1 sin(2e-3), about 1e-3
    "gap-1e-3": chart3(theta1=0.8, theta2=THETA2_MAX - 1e-3),
    "theta1-small": chart3(theta1=0.01),
    "theta1-near-max": chart3(theta1=THETA1_MAX - 1e-3),
}
EDGES2 = {
    "theta-small": CosetChart2(0.01, alpha=0.7, phi=0.4),
    # lambda1 - lambda2 = cos 2 theta, about 1e-3
    "gap-1e-3": CosetChart2(math.pi / 4 - 5e-4, alpha=0.7, phi=0.4),
    "alpha-zero": CosetChart2(0.3, alpha=0.0, phi=0.4),
    "alpha-half-pi": CosetChart2(0.3, alpha=math.pi / 2, phi=2.0),
}
_rng3, _rng2 = make_rng(11), make_rng(12)
CHARTS = {**{f"seed3-{k}": random_chart3(_rng3) for k in range(16)},
          **{f"seed2-{k}": random_chart2(_rng2) for k in range(4)},
          **{f"edge3-{k}": c for k, c in EDGES3.items()},
          **{f"edge2-{k}": c for k, c in EDGES2.items()}}


@pytest.mark.parametrize("chart", CHARTS.values(), ids=CHARTS)
def test_closed_tensor_matches_the_40_digit_reference(chart):
    closed = metric.closed_metric3 if isinstance(chart, CosetChart3) else metric.closed_metric2
    ref = np.array(mp_reference.metric(chart.values()))
    assert np.abs(closed(chart).g - ref).max() <= REL * np.abs(ref).max()


def test_no_package_module_imports_the_reference_or_mpmath():
    src = Path(coset.__file__).resolve().parent
    imported = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert not imported & {"mp_reference", "mpmath"}
