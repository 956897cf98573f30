"""The closed and pullback tensors against the 40-digit reference of
mp_reference.py."""

import ast
import functools
import math
from pathlib import Path

import numpy as np
import pytest

import mp_reference
from buresgeo import coset, metric
from buresgeo.coset import THETA1_MAX, THETA2_MAX, THETA2_MIN, CosetChart2, CosetChart3
from buresgeo.errors import BoundaryTooClose
from buresgeo.sampling import make_rng, random_chart2, random_chart3
from buresgeo.tol import SERIES_CUTOFF

REL = 1e-14
# the central differences err by up to 5.2e-10 of max |g_ref| (edge2-theta-small;
# about 1.4e-10 elsewhere, huge coordinates included): a 1.9x margin
PULLBACK_REL = 1e-9


def chart3(theta1=0.5, theta2=0.65, beta=1.2, chi=0.7, phi=0.4):
    """A 3-level chart whose (beta1, beta2) has length ``beta`` and direction ``chi``."""
    return CosetChart3(theta1, theta2, alpha=0.3, phi=phi, beta1=beta * math.cos(chi),
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
# within two pullback steps of a range end: the pullback refuses them
NEAR_BOUNDARY = ("edge3-theta2-min", "edge3-beta-near-pi")
# free coordinates whose steps x +- tol.DEFAULT_STEP round to the spacing of x
HUGE = {**{f"huge3-phi-{phi:.0e}": chart3(phi=phi) for phi in (1e9, 3e10, 1e11)},
        **{f"huge2-alpha-{a:.0e}": CosetChart2(0.3, alpha=a, phi=0.4) for a in (1e9, 1e10)}}
PULLBACK_CHARTS = {**{k: c for k, c in CHARTS.items() if k not in NEAR_BOUNDARY}, **HUGE}
# every gap at least tol.GAP with lambda3 below 1e-6 (7.5e-7, 6.8e-7): the closed route
# alone. The pullback raises BoundaryTooClose at the first (theta2 = pi/6) and is 2.5e-9
# of max |g_ref| off at the second, above PULLBACK_REL
SLIVERS = {"sliver3-theta2-min": chart3(theta1=math.asin(math.sqrt(3e-6)), theta2=THETA2_MIN),
           "sliver3-theta2-0.55": chart3(theta1=math.asin(math.sqrt(2.5e-6)), theta2=0.55)}
CLOSED_CHARTS = {**CHARTS, **SLIVERS}


def family(chart) -> metric.Family:
    return metric.FAMILIES[3 if isinstance(chart, CosetChart3) else 2]


@functools.cache
def reference(values: tuple) -> np.ndarray:
    """The reference tensor at ``values``, computed once for both routes."""
    return np.array(mp_reference.metric(values))


@pytest.mark.parametrize("chart", CLOSED_CHARTS.values(), ids=CLOSED_CHARTS)
def test_closed_tensor_matches_the_40_digit_reference(chart):
    ref = reference(chart.values())
    assert np.abs(family(chart).closed(chart).g - ref).max() <= REL * np.abs(ref).max()


@pytest.mark.parametrize("chart", PULLBACK_CHARTS.values(), ids=PULLBACK_CHARTS)
def test_pullback_tensor_matches_the_40_digit_reference(chart):
    ref = reference(chart.values())
    assert np.abs(family(chart).pullback(chart).g - ref).max() <= PULLBACK_REL * np.abs(ref).max()


@pytest.mark.parametrize("name", NEAR_BOUNDARY)
def test_pullback_refuses_a_chart_near_a_range_end(name):
    with pytest.raises(BoundaryTooClose):
        metric.pullback_metric3(CHARTS[name])


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
