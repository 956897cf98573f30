"""The contract of the frozen value types that write their own __init__:
CosetChart2, CosetChart3 and MetricTensor keep what a generated
frozen-dataclass constructor gives (frozen fields, the signature the fields
declare, repr, replace, copies and pickling), and the types that hold
ndarrays (MetricTensor, SpectralDecomposition, PermutationIdentity) compare
by identity. The coefficient records Coeffs3 and SCoeff2 are named tuples:
the same fields, repr and value equality, plus tuple unpacking; Coeffs3 also
runs the frozen-value cases, through the named-tuple spelling of each."""

import copy
import dataclasses
import inspect
import pickle

import numpy as np
import pytest

from buresgeo.coset import CosetChart2, CosetChart3, permutation_table, rho3
from buresgeo.errors import OutOfChartRange
from buresgeo.metric import Coeffs3, SCoeff2, aux_coeffs, closed_metric3, s_coeff
from buresgeo.sampling import make_rng, random_chart3

CHART3 = random_chart3(make_rng(7))
INSTANCES = {
    "CosetChart2": CosetChart2(0.3, -0.0, 2.5),
    "CosetChart3": CHART3,
    "MetricTensor": closed_metric3(CHART3),
    "Coeffs3": aux_coeffs(CHART3.beta1, CHART3.beta2),
}
CASES = pytest.mark.parametrize("obj", INSTANCES.values(), ids=INSTANCES)
RECORDS = {
    "Coeffs3": INSTANCES["Coeffs3"],
    "SCoeff2": s_coeff(np.diag([0.7, 0.3])),
}


def field_defaults(obj) -> dict:
    """Field name -> declared default (inspect.Parameter.empty if none), in
    field order, for a dataclass instance or a named tuple."""
    if dataclasses.is_dataclass(obj):
        return {f.name: inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
                for f in dataclasses.fields(obj)}
    return {name: type(obj)._field_defaults.get(name, inspect.Parameter.empty)
            for name in type(obj)._fields}


def field_bytes(obj) -> tuple:
    """Every field of ``obj`` in a form that tells signed zeros, dtypes and
    array bytes apart."""
    out = []
    for name in field_defaults(obj):
        v = getattr(obj, name)
        out.append((name, v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray)
                   else (name, type(v), repr(v)))
    return tuple(out)


@CASES
def test_every_field_is_frozen(obj):
    # a named tuple's fields are read-only properties: AttributeError, of
    # which FrozenInstanceError is a subclass
    frozen = dataclasses.FrozenInstanceError if dataclasses.is_dataclass(obj) else AttributeError
    for name in field_defaults(obj):
        with pytest.raises(frozen):
            setattr(obj, name, 0.25)
        with pytest.raises(frozen):
            delattr(obj, name)


@CASES
def test_fields_and_signature_agree(obj):
    params = inspect.signature(type(obj)).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default)
        for name, default in field_defaults(obj).items()]


@CASES
def test_positional_and_keyword_construction_agree(obj):
    names = list(field_defaults(obj))
    values = [getattr(obj, name) for name in names]
    positional = type(obj)(*values)
    keyword = type(obj)(**dict(zip(names, values)))
    assert field_bytes(positional) == field_bytes(keyword) == field_bytes(obj)


@CASES
def test_repr_names_every_field(obj):
    fields = ", ".join(f"{name}={getattr(obj, name)!r}" for name in field_defaults(obj))
    assert repr(obj) == f"{type(obj).__name__}({fields})"


@CASES
def test_replace_deepcopy_and_pickle_keep_every_field(obj):
    same = dataclasses.replace(obj) if dataclasses.is_dataclass(obj) else obj._replace()
    for twin in (same, copy.copy(obj), copy.deepcopy(obj),
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
    for obj in (INSTANCES["CosetChart2"], INSTANCES["CosetChart3"], *RECORDS.values()):
        twin = copy.deepcopy(obj)
        assert twin == obj and hash(twin) == hash(obj)


@pytest.mark.parametrize("obj", RECORDS.values(), ids=RECORDS)
def test_coefficient_records_are_named_tuples(obj):
    names = {Coeffs3: ("u1", "u2", "v1", "v2", "w1", "w2", "x", "y"),
             SCoeff2: ("s12",)}[type(obj)]
    assert type(obj)._fields == names
    assert tuple(obj) == tuple(getattr(obj, name) for name in names)
    assert all(type(v) is float for v in obj)
    fields = ", ".join(f"{name}={getattr(obj, name)!r}" for name in names)
    assert repr(obj) == f"{type(obj).__name__}({fields})"
    with pytest.raises(AttributeError):
        setattr(obj, names[0], 0.25)
    moved = obj._replace(**{names[-1]: 0.25})
    assert type(moved) is type(obj) and moved[:-1] == obj[:-1] and moved[-1] == 0.25
    for twin in (copy.copy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and twin == obj


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
