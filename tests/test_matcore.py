import numpy as np
import pytest

from buresgeo import matcore
from buresgeo.errors import DimensionMismatch, NotHermitian


def test_hermitize_fixed_point():
    h = np.array([[1.0, 2 - 1j], [2 + 1j, -3.0]])
    np.testing.assert_allclose(matcore.hermitize(h), h)


def test_hermitize_antihermitian_killed():
    k = np.array([[1j, 2 + 1j], [-2 + 1j, -3j]])
    assert np.max(np.abs(k + k.conj().T)) < 1e-15  # anti-Hermitian by construction
    np.testing.assert_allclose(matcore.hermitize(k), np.zeros((2, 2)), atol=1e-15)


def test_hermitize_explicit():
    a = np.array([[1.0, 2j], [0.0, 1.0]])
    expected = np.array([[1.0, 1j], [-1j, 1.0]])
    np.testing.assert_allclose(matcore.hermitize(a), expected)


def test_eig_identity():
    spec = matcore.eig_hermitian(np.eye(3, dtype=complex))
    np.testing.assert_allclose(spec.eigenvalues, [1, 1, 1])
    v = spec.eigenvectors
    np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-12)


def test_eig_already_diagonal():
    spec = matcore.eig_hermitian(np.diag([0.2, 0.8]).astype(complex))
    np.testing.assert_allclose(spec.eigenvalues, [0.2, 0.8])
    # columns are basis vectors up to order/phase
    assert np.allclose(np.abs(spec.eigenvectors), np.eye(2), atol=1e-12)


def test_eig_pauli_x():
    # characteristic polynomial x^2 - 1 by hand: eigenvalues -1, 1
    spec = matcore.eig_hermitian(np.array([[0, 1], [1, 0]], dtype=complex))
    np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        matcore.eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eig_ascending_and_reconstructs():
    # 1000 random Hermitian matrices with entries in [-1, 1] across n = 2, 3, 4
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        for _ in range(334):
            g = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
            a = (g + g.conj().T) / 2
            spec = matcore.eig_hermitian(a)
            assert np.all(np.diff(spec.eigenvalues) >= 0)
            v = spec.eigenvectors
            assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-12
            err = np.linalg.norm(spec.reconstruct() - a)
            assert err <= 1e-11 * np.linalg.norm(a)


def test_trace_det_examples():
    assert matcore.trace(np.eye(3, dtype=complex)) == pytest.approx(3)
    assert matcore.det(np.diag([2.0, 3.0, 4.0]).astype(complex)) == pytest.approx(24)


def test_det_multiplicative():
    rng = np.random.default_rng(9)
    for _ in range(60):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = matcore.det(a @ b)
        rhs = matcore.det(a) * matcore.det(b)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        matcore.as_matrix(np.zeros((2, 3)))
