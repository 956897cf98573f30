import cmath
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

from buresgeo import cli, coset, matcore
from buresgeo.bures import dittmann3_form, fidelity, hubner_form
from buresgeo.coset import CosetChart3, as_density, rho2, rho3
from buresgeo.errors import ConvergenceFailure, DimensionMismatch, InvalidDensityMatrix
from buresgeo.metric import closed_metric3, s_coeff, volume_element
from buresgeo.sampling import make_rng, random_chart2, random_chart3, random_unitary
from buresgeo.tol import INVARIANT
from test_bures import SUBNORMAL_PIVOT


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


def test_eig_rejects_nonhermitian(never_decomposed):
    with pytest.raises(InvalidDensityMatrix, match="not Hermitian"):
        as_density(np.array([[0.5, 1], [0, 0.5]], dtype=complex))


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
            err = np.linalg.norm((v * spec.eigenvalues) @ v.conj().T - a)
            assert err <= 1e-11 * np.linalg.norm(a)


def test_det_example():
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


@pytest.mark.parametrize("bad", ["abc", [[1, 2, 3], [4, 5]], object()],
                         ids=["str", "ragged", "object"])
def test_a_state_numpy_cannot_read_is_a_dimension_mismatch(bad):
    # every entry point that reads a state gives the typed error, not
    # numpy's ValueError or TypeError
    d = np.eye(3, dtype=complex)
    for call in (lambda: matcore.as_matrix(bad), lambda: as_density(bad),
                 lambda: fidelity(bad, bad), lambda: s_coeff(bad),
                 lambda: hubner_form(bad, d, d), lambda: dittmann3_form(bad, d)):
        with pytest.raises(DimensionMismatch) as exc:
            call()
        assert exc.value.exit_code == 4


# ---------------------------------------------------------------------------
# eig_hermitian's precondition: every state is checked once, when it is built
# ---------------------------------------------------------------------------

@pytest.fixture
def never_decomposed(monkeypatch):
    """eig_hermitian checks nothing: a matrix that fails the state check must
    be refused by DensityMatrix construction, before the eigensolver."""
    def refuse(a):
        raise AssertionError("a matrix that fails the state check reached eig_hermitian")
    monkeypatch.setattr(matcore, "eig_hermitian", refuse)


def test_the_state_check_reports_the_largest_entry_of_a_minus_a_dag(never_decomposed):
    a = np.array([[0.5, 0.1 + 0.2j, 0.0], [0.1 - 0.2j, 0.3, 1e-3], [0.0, 0.0, 0.2 + 1e-4j]])
    assert float(np.max(np.abs(a - a.conj().T))) == 1e-3
    for mat in (a, a.conj().T):
        with pytest.raises(InvalidDensityMatrix,
                           match=r"^not Hermitian: max \|A - A\^dag\| = 1\.000e-03 > 1\.0e-10$"):
            as_density(mat)


@pytest.mark.filterwarnings("error")
def test_eig_hermitian_at_the_invariant_threshold(monkeypatch):
    calls = []
    eig = matcore.eig_hermitian
    monkeypatch.setattr(matcore, "eig_hermitian", lambda a: calls.append(a) or eig(a))
    a = np.diag([0.5, 0.3, 0.2]).astype(complex)
    a[0, 1] = INVARIANT
    as_density(a)
    assert len(calls) == 1
    a[0, 1] = 2 * INVARIANT
    with pytest.raises(InvalidDensityMatrix, match=r"= 2\.000e-10 > 1\.0e-10"):
        as_density(a)
    assert len(calls) == 1


@pytest.mark.filterwarnings("error")
def test_eig_hermitian_nan_entry_is_refused_before_the_solver(monkeypatch):
    # nan > INVARIANT is False, so a Hermiticity test alone would pass it on
    monkeypatch.setattr(matcore, "eigh", None)  # the solver is never reached
    a = np.diag([0.5, 0.3, 0.2]).astype(complex)
    a[0, 1] = a[1, 0] = math.nan
    with pytest.raises(InvalidDensityMatrix, match="non-finite"):
        as_density(a)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan),
                                 complex(math.inf, -math.inf)])
@pytest.mark.parametrize("at", [(0, 0), (0, 1), (1, 0), (2, 2)])
@pytest.mark.parametrize("mirrored", [False, True])
def test_eig_hermitian_refuses_a_nonfinite_entry_without_a_warning(bad, at, mirrored,
                                                                   never_decomposed):
    a = np.diag([0.5, 0.3, 0.2]).astype(complex)
    a[at] = bad
    if mirrored:
        a[at[::-1]] = np.conj(bad)
    with pytest.raises(InvalidDensityMatrix, match="non-finite"):
        as_density(a)


@pytest.mark.filterwarnings("error")
def test_eig_hermitian_refuses_a_hermitian_part_that_overflows(monkeypatch):
    # finite and exactly Hermitian, but A + A^dag is inf: refused when the
    # state is built instead of overflowing in the Hermitian part
    a = np.array([[0.5, 1e308], [1e308, 0.5]], dtype=complex)
    with monkeypatch.context() as m:
        m.setattr(matcore, "eigh", None)  # the solver is never reached
        with pytest.raises(InvalidDensityMatrix, match="the spectrum overflows"):
            as_density(a)
    # the largest entries whose Hermitian part is finite still decompose
    a[0, 1] = a[1, 0] = np.nextafter(2.0 ** 1023, 0.0)
    assert np.isfinite(matcore.eig_hermitian(a).eigenvalues).all()


def test_a_hermiticity_defect_that_overflows_is_inf(never_decomposed):
    # |A_01 - conj(A_10)| of finite parts beyond the largest float: abs() of a
    # Python complex raises OverflowError there
    a = np.array([[0.5, 1e308 + 1e308j], [-0.5e308 + 0.5e308j, 0.5]])
    with pytest.raises(InvalidDensityMatrix, match="= inf >"):
        as_density(a)
    # the overflow stops the pass at the first pair; a non-finite entry
    # after it is still reported first
    b = np.zeros((3, 3), dtype=complex)
    b[:2, :2] = a
    b[2, 2] = complex(0.0, math.nan)
    with pytest.raises(InvalidDensityMatrix, match="non-finite"):
        as_density(b)


def test_a_user_state_is_checked_once(monkeypatch):
    # one checked construction and one eigendecomposition when the state is
    # built; the spectrum, the Hubner form and the fidelity reuse the checked state
    checks, eigs = [], []
    init, eig = coset.DensityMatrix.__init__, matcore.eig_hermitian
    monkeypatch.setattr(coset.DensityMatrix, "__init__",
                        lambda self, mat: checks.append(mat) or init(self, mat))
    monkeypatch.setattr(matcore, "eig_hermitian", lambda h: eigs.append(h) or eig(h))
    rho = as_density(rho3(random_chart3(make_rng(18))).mat.copy())
    assert (len(checks), len(eigs)) == (1, 1)
    d = np.eye(3, dtype=complex)
    assert rho.spectral is rho.spectral
    assert math.isfinite(hubner_form(rho, d, d))
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)
    assert (len(checks), len(eigs)) == (1, 1)


@pytest.mark.parametrize("shape", [(2, 2), (4, 4), (3,), (3, 1), (1, 3, 3)])
def test_as_tangent_checks_the_shape_before_the_entries(shape):
    with pytest.raises(DimensionMismatch, match=re.escape(f"{shape} at a 3x3 state")):
        matcore.as_tangent(np.full(shape, math.nan), 3)


# ---------------------------------------------------------------------------
# LAPACK kernels: byte for byte np.linalg
# ---------------------------------------------------------------------------

def _states():
    """2x2 and 3x3 chart states, Hilbert-Schmidt states, rank-1 and rank-2
    states and degenerate spectra."""
    rng = make_rng(16)
    out = [rho2(random_chart2(rng)).mat for _ in range(10)]
    out += [rho3(random_chart3(rng)).mat for _ in range(10)]
    for n in (2, 3):
        for rank in range(1, n + 1):
            for _ in range(5):
                g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
                s = g @ g.conj().T
                out.append(s / np.trace(s).real)
    out += [np.eye(2, dtype=complex) / 2, np.eye(3, dtype=complex) / 3,
            np.diag([0.5, 0.25, 0.25]).astype(complex)]
    u = random_unitary(rng, 3)
    out.append((u * [0.5, 0.25, 0.25]) @ u.conj().T)
    return out


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("error")
def test_eigh_kernel_equals_np_linalg_byte_for_byte():
    for state in _states():
        h = (state + state.conj().T) / 2
        w, v = matcore.eigh(h)
        want = np.linalg.eigh(h)
        assert _same_bytes(w, want.eigenvalues) and _same_bytes(v, want.eigenvectors), state


@pytest.mark.filterwarnings("error")
def test_singular_values_kernel_equals_np_linalg_byte_for_byte():
    states = _states()
    # the products fidelity takes singular values of, and the states themselves
    roots = [matcore.eig_hermitian(s) for s in states]
    roots = [r.eigenvectors * np.sqrt(np.maximum(r.eigenvalues, 0.0)) for r in roots]
    mats = states + [a.conj().T @ b for a, b in zip(roots, roots[1:]) if a.shape == b.shape]
    for m in mats:
        assert _same_bytes(matcore.singular_values(m), np.linalg.svd(m, compute_uv=False)), m


def _states_to_4():
    """_states(), a diagonal state whose smallest eigenvalue is exactly 0.0,
    eigenvalues rounded below 0, and 4x4 Hilbert-Schmidt states of every rank."""
    rng = make_rng(18)
    out = _states() + [np.diag([0.7, 0.3, 0.0]).astype(complex),
                       np.diag([1.0 + 2 * 0.99e-10, -0.99e-10, -0.99e-10]).astype(complex)]
    for rank in range(1, 5):
        for _ in range(5):
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            s = g @ g.conj().T
            out.append(s / np.trace(s).real)
    return out


@pytest.mark.filterwarnings("error")
def test_root_is_the_factor_fidelity_formed_byte_for_byte():
    # fidelity formed V sqrt(max(lambda, 0)) afresh on every call before the
    # spectrum kept it; the clamp is skipped when lambda_min > 0, and the
    # states take both branches: lambda_min exactly 0.0 and rounded below 0
    branches = set()
    for state in _states_to_4():
        spec = as_density(state).spectral
        want = spec.eigenvectors * np.sqrt(np.maximum(spec.eigenvalues, 0.0))
        assert _same_bytes(spec.root, want), state
        assert spec.root is spec.root
        branches.add(bool(spec.eigenvalues[0] > 0.0))
    assert branches == {False, True}
    assert as_density(np.diag([0.7, 0.3, 0.0]).astype(complex)).eigenvalues[0] == 0.0


@pytest.mark.filterwarnings("error")
def test_fidelity_sums_its_singular_values_as_numpy_does():
    # fidelity sums the singular values left to right on Python floats, as
    # numpy's add.reduce sums fewer than 8 values: every ordered pair of
    # same-size states, each state with itself included, at n = 2, 3 and 4
    states = [as_density(s) for s in _states_to_4()]
    sizes = set()
    for a in states:
        for b in states:
            if a.dim != b.dim:
                continue
            s = matcore.singular_values(a.spectral.root.conj().T @ b.spectral.root)
            want = min(float(s.sum()) ** 2, 1.0)
            assert fidelity(a, b).hex() == want.hex(), (a.mat, b.mat)
            sizes.add(a.dim)
    assert sizes == {2, 3, 4}


def _checked_corpus():
    """3,000 seeded matrices: rho2 (every fourth) and rho3 states of random
    charts under random diagonal phases, Hilbert-Schmidt states G G† / Tr at
    n = 2, 3, 4, and the first thousand again with antihermitian noise of
    0.5 INVARIANT, the trace kept at 1."""
    rng = make_rng(0)
    mats = []
    for i in range(1000):
        state = rho2(random_chart2(rng)) if i % 4 == 0 else rho3(random_chart3(rng))
        phase = np.exp(1j * rng.uniform(0.0, 2 * math.pi, state.dim))
        mats.append(phase[:, None] * state.mat * phase.conj()[None, :])
    for i in range(1000):
        n = 2 + i % 3
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        mat = g @ g.conj().T
        mats.append(mat / np.trace(mat).real)
    for state in mats[:1000]:
        g = rng.normal(size=state.shape) + 1j * rng.normal(size=state.shape)
        k = g - g.conj().T
        k[np.diag_indices(len(k))] -= np.trace(k) / len(k)
        mats.append(state + k * (0.5 * INVARIANT / np.max(np.abs(k - k.conj().T))))
    return mats


@pytest.mark.filterwarnings("error")
def test_checked_states_keep_numpys_spectra_roots_and_fidelities_byte_for_byte():
    # the state check hands the solver (A + A†) / 2 formed in its one pass; the
    # square-root factor is clamped only when lambda_min <= 0; fidelity sums
    # its singular values on Python floats. Each must give numpy's bytes, and
    # so must the fidelity of each consecutive same-size pair
    mats = _checked_corpus()
    states = [as_density(mat) for mat in mats]
    for mat, state in zip(mats, states):
        spec = state.spectral
        want = np.linalg.eigh((mat + mat.conj().T) / 2)
        assert _same_bytes(spec.eigenvalues, want.eigenvalues), mat
        assert _same_bytes(spec.eigenvectors, want.eigenvectors), mat
        w, v = want
        assert _same_bytes(spec.root, v * np.sqrt(np.maximum(w, 0.0))), mat
    pairs = 0
    for a, b in zip(states, states[1:]):
        if a.dim == b.dim:
            pairs += 1
            s = np.linalg.svd(a.spectral.root.conj().T @ b.spectral.root, compute_uv=False)
            assert fidelity(a, b).hex() == min(float(s.sum()) ** 2, 1.0).hex(), (a.mat, b.mat)
    assert len(states) == 3000 and pairs == 1001


@pytest.mark.filterwarnings("error")
def test_det_and_inv_kernels_equal_np_linalg_byte_for_byte():
    for state in _states():
        assert _same_bytes(matcore.det(state), complex(np.linalg.det(state)))
        if state.shape == (3, 3) and abs(np.linalg.det(state)) > 1e-8:
            assert _same_bytes(matcore.inv(state), np.linalg.inv(state)), state
    rng = make_rng(17)
    charts = [random_chart3(rng) for _ in range(10)]
    # at the last chart the tensor is exactly singular
    charts.append(CosetChart3(0.6, 0.68, 1e-05, 1.1, 1e-300, 5e-05, 1.1, -1.1))
    for ch in charts:
        g = closed_metric3(ch).g
        with np.errstate(divide="ignore"):
            assert _same_bytes(matcore.det_real(g), float(np.linalg.det(g))), ch
    vol = volume_element(closed_metric3(charts[-1]))
    assert vol == 0.0 and math.copysign(1.0, vol) == 1.0


class _FailingLapack:
    """Stands in for numpy's gufunc module: every output is nan, as LAPACK's
    failure leaves it."""

    @staticmethod
    def eigh_lo(a, signature):
        n = a.shape[0]
        return np.full(n, np.nan), np.full((n, n), np.nan, dtype=complex)

    @staticmethod
    def svd(a, signature):
        return np.full(min(a.shape), np.nan)

    @staticmethod
    def inv(a, signature):
        return np.full(a.shape, np.nan, dtype=complex)


def test_a_nonfinite_kernel_result_raises_convergence_failure(monkeypatch):
    monkeypatch.setattr(matcore, "_umath_linalg", _FailingLapack)
    state = np.diag([0.5, 0.3, 0.2]).astype(complex)
    for call in (matcore.eigh, matcore.singular_values, matcore.inv,
                 matcore.eig_hermitian):
        with pytest.raises(ConvergenceFailure):
            call(state)


def test_only_matcore_calls_lapack():
    src = Path(matcore.__file__).parent
    calls = re.compile(r"linalg\.(eigh|eigvalsh|svd|det|slogdet|inv|solve)\b|_umath_linalg")
    users = sorted(p.name for p in src.glob("*.py") if calls.search(p.read_text()))
    assert users == ["matcore.py"]


def test_only_matcore_and_read_matrix_set_a_floating_point_policy():
    # matcore's LU kernels never warn, and their callers judge the values;
    # read_matrix lets 1j * inf give a nan for the state check to refuse
    src = Path(matcore.__file__).parent
    sets = re.compile(r"\berrstate\(")
    found = {p.name: len(sets.findall(p.read_text())) for p in src.glob("*.py")}
    assert {name: k for name, k in found.items() if k} == {"matcore.py": 1, "cli.py": 1}
    assert sets.search(inspect.getsource(cli.read_matrix))


@pytest.mark.filterwarnings("error")
def test_lu_kernels_return_their_value_without_a_warning():
    for mat in SUBNORMAL_PIVOT.values():
        assert cmath.isnan(matcore.det(mat))
    # an exactly singular closed tensor: LAPACK divides by zero on the way to 0.0
    g = closed_metric3(CosetChart3(0.6, 0.68, 1e-05, 1.1, 1e-300, 5e-05, 1.1, -1.1)).g
    with np.errstate(all="ignore"):
        want = float(np.linalg.det(g))
    assert _same_bytes(matcore.det_real(g), want) and want == 0.0
