import math

import numpy as np
import pytest

from buresgeo import coset
from buresgeo.coset import BETA_MAX, CosetChart2, CosetChart3
from buresgeo.errors import DimensionMismatch
from buresgeo.sampling import (MARGIN, make_rng, random_chart2, random_chart3, random_tangent,
                               random_unitary)
from buresgeo.tol import SAMPLE_GAP


def uniform_random_chart2(rng):
    """random_chart2 as it read with one rng.uniform(lo, hi) call per draw."""
    lo, hi = MARGIN * coset.THETA_MAX, coset.THETA_MAX - MARGIN * coset.THETA_MAX
    return CosetChart2(theta=rng.uniform(lo, hi), alpha=rng.uniform(0.0, 2 * math.pi),
                       phi=rng.uniform(0.0, 2 * math.pi))


def uniform_random_chart3(rng):
    """random_chart3 as it read with one rng.uniform(lo, hi) call per draw."""
    width2 = coset.THETA2_MAX - coset.THETA2_MIN
    while True:
        t1 = rng.uniform(MARGIN * coset.THETA1_MAX, coset.THETA1_MAX - MARGIN * coset.THETA1_MAX)
        t2 = rng.uniform(coset.THETA2_MIN + MARGIN * width2, coset.THETA2_MAX - MARGIN * width2)
        lam = coset.diag_entries3(t1, t2)
        gaps = (abs(lam[0] - lam[1]), abs(lam[0] - lam[2]), abs(lam[1] - lam[2]))
        if min(gaps) >= SAMPLE_GAP and min(lam) >= SAMPLE_GAP:
            break
    beta = rng.uniform(MARGIN * BETA_MAX, (1.0 - MARGIN) * BETA_MAX)
    chi = rng.uniform(0.0, 2 * math.pi)
    return CosetChart3(theta1=t1, theta2=t2, alpha=rng.uniform(0.0, 2 * math.pi),
                       phi=rng.uniform(0.0, 2 * math.pi),
                       beta1=beta * math.cos(chi), beta2=beta * math.sin(chi),
                       psi1=rng.uniform(0.0, 2 * math.pi), psi2=rng.uniform(0.0, 2 * math.pi))


@pytest.mark.parametrize("sample,reference", [(random_chart2, uniform_random_chart2),
                                              (random_chart3, uniform_random_chart3)],
                         ids=["n2", "n3"])
def test_a_chart_draws_what_rng_uniform_draws_to_the_last_bit(sample, reference):
    # numpy computes rng.uniform(lo, hi) as lo + (hi - lo) * rng.random()
    rng, ref = make_rng(31), make_rng(31)
    for _ in range(10_000):
        got, want = sample(rng), reference(ref)
        assert all(type(v) is float for v in got.values())
        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]


@pytest.mark.parametrize("n", [2, 3])
def test_random_unitary_has_haar_moments(n):
    # |U_00|^2 of a Haar unitary is Beta(1, n - 1): mean 1/n and second moment
    # 2/(n(n+1)); at 20,000 draws the standard errors are below 0.0025
    rng = make_rng(2007)
    draws = [random_unitary(rng, n) for _ in range(20_000)]
    x = np.array([abs(u[0, 0]) ** 2 for u in draws])
    assert abs(x.mean() - 1 / n) <= 0.01
    assert abs((x ** 2).mean() - 2 / (n * (n + 1))) <= 0.01
    u = draws[-1]
    np.testing.assert_allclose(u.conj().T @ u, np.eye(n), atol=1e-13)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [0, 1])
def test_random_tangent_refuses_a_size_without_a_unit_traceless_tangent(n):
    # at n = 1 the traceless part is 0, and 0 / 0 warned and gave nan
    with pytest.raises(DimensionMismatch,
                       match=f"^no traceless unit-norm tangent exists at n={n}$"):
        random_tangent(make_rng(0), n)
