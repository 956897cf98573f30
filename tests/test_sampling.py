import numpy as np
import pytest

from buresgeo.errors import DimensionMismatch
from buresgeo.sampling import make_rng, random_tangent, random_unitary


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
