"""The contract of the frozen value types that write their own __init__:
CosetChart2, CosetChart3, MetricTensor and Coeffs3 keep what a generated
frozen-dataclass constructor gives (frozen fields, the signature the fields
declare, repr, replace, copies and pickling), and the types that hold
ndarrays (MetricTensor, SpectralDecomposition, PermutationIdentity) compare
by identity."""

import copy
import dataclasses
import inspect
import pickle

import numpy as np
import pytest

from buresgeo.coset import CosetChart2, CosetChart3, permutation_table, rho3
from buresgeo.errors import OutOfChartRange
from buresgeo.metric import aux_coeffs, closed_metric3
from buresgeo.sampling import make_rng, random_chart3

CHART3 = random_chart3(make_rng(7))
INSTANCES = {
    "CosetChart2": CosetChart2(0.3, -0.0, 2.5),
    "CosetChart3": CHART3,
    "MetricTensor": closed_metric3(CHART3),
    "Coeffs3": aux_coeffs(CHART3.beta1, CHART3.beta2, CHART3.phi, CHART3.psi1, CHART3.psi2),
}
CASES = pytest.mark.parametrize("obj", INSTANCES.values(), ids=INSTANCES)


def field_bytes(obj) -> tuple:
    """Every field of ``obj`` in a form that tells signed zeros, dtypes and
    array bytes apart."""
    out = []
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        out.append((f.name, v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray)
                   else (f.name, type(v), repr(v)))
    return tuple(out)


@CASES
def test_every_field_is_frozen(obj):
    for f in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, 0.25)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, f.name)


@CASES
def test_fields_and_signature_agree(obj):
    params = inspect.signature(type(obj)).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(obj)]


@CASES
def test_positional_and_keyword_construction_agree(obj):
    values = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    names = [f.name for f in dataclasses.fields(obj)]
    positional = type(obj)(*values)
    keyword = type(obj)(**dict(zip(names, values)))
    assert field_bytes(positional) == field_bytes(keyword) == field_bytes(obj)


@CASES
def test_repr_names_every_field(obj):
    fields = ", ".join(f"{f.name}={getattr(obj, f.name)!r}" for f in dataclasses.fields(obj))
    assert repr(obj) == f"{type(obj).__name__}({fields})"


@CASES
def test_replace_deepcopy_and_pickle_keep_every_field(obj):
    for twin in (dataclasses.replace(obj), copy.copy(obj), copy.deepcopy(obj),
                 pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and twin is not obj
        assert field_bytes(twin) == field_bytes(obj)


def test_replace_runs_the_constructor_checks():
    chart = INSTANCES["CosetChart3"]
    moved = dataclasses.replace(chart, alpha=1)
    assert type(moved.alpha) is float and moved.alpha == 1.0
    kept = [i for i in range(8) if i != 2]  # every field but alpha
    assert [field_bytes(moved)[i] for i in kept] == [field_bytes(chart)[i] for i in kept]
    with pytest.raises(OutOfChartRange, match="theta2"):
        dataclasses.replace(chart, theta2=0.1)
    with pytest.raises(OutOfChartRange, match="theta"):
        dataclasses.replace(INSTANCES["CosetChart2"], theta=1.0)


def test_value_types_without_arrays_compare_by_value():
    for obj in (INSTANCES["CosetChart2"], INSTANCES["CosetChart3"], INSTANCES["Coeffs3"]):
        twin = copy.deepcopy(obj)
        assert twin == obj and hash(twin) == hash(obj)


def test_types_holding_arrays_compare_by_identity():
    g1, g2 = closed_metric3(CHART3), closed_metric3(CHART3)
    assert g1.g.tobytes() == g2.g.tobytes()
    assert g1 == g1 and g1 != g2 and not (g1 == g2)
    assert hash(g1) == hash(g1) and len({g1, g2, g1}) == 2
    state = rho3(CHART3)
    spec = state.spectral
    assert spec == state.spectral and hash(spec) == hash(state.spectral)
    assert spec != rho3(CHART3).spectral
    # the generated __eq__ compared ndarrays (ValueError) and hashed them (TypeError)
    p1, p2 = permutation_table()[1], permutation_table()[1]
    assert p1.omega.tobytes() == p2.omega.tobytes()
    assert p1 == p1 and p1 != p2 and not (p1 == p2)
    assert hash(p1) == hash(p1) and len({p1, p2, p1}) == 2
