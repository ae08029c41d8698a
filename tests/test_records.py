"""The record contract: every result and input record is an immutable
NamedTuple with a fixed field order, a literal repr, tuple hashing and a
pickle round trip."""

import pickle
from fractions import Fraction

import pytest

from nongauss import (
    BetaConstants,
    CubicCoeffs,
    CubicFactorization,
    DiscriminantResult,
    ExpectationSet,
    IdentityResidual,
    IntegralMethod,
    IntegralResult,
    Panel,
    PanelDecomposition,
    QuadratureConfig,
    ResolventData,
    RootClassification,
    RootSet,
    Sign,
    SylvesterMatrix,
)
from nongauss.polynomial import Chart


def _disc():
    return DiscriminantResult(Fraction(-367), Sign.NEGATIVE)


# (build, fields, repr): build makes a new, equal record on every call
_RECORDS = [
    (
        _disc,
        ("value", "sign"),
        "DiscriminantResult(value=Fraction(-367, 1), sign=<Sign.NEGATIVE: 'Negative'>)",
    ),
    (
        lambda: SylvesterMatrix(((1, 0, -1), (2, 0, 0), (0, 2, 0)), 2),
        ("entries", "degree"),
        "SylvesterMatrix(entries=((1, 0, -1), (2, 0, 0), (0, 2, 0)), degree=2)",
    ),
    (
        lambda: ResolventData(Fraction(1), Fraction(-9, 2), Fraction(3)),
        ("A", "B", "C"),
        "ResolventData(A=Fraction(1, 1), B=Fraction(-9, 2), C=Fraction(3, 1))",
    ),
    (
        lambda: CubicCoeffs(1, 0, -1, 0),
        ("a", "b", "c", "d"),
        "CubicCoeffs(a=1, b=0, c=-1, d=0)",
    ),
    (
        lambda: CubicFactorization(1, 1, 0),
        ("alpha", "k", "l"),
        "CubicFactorization(alpha=1, k=1, l=0)",
    ),
    (
        lambda: RootSet(((-1.0, 1), (0.0, 1), (1.0, 1)), RootClassification.THREE_DISTINCT_REAL),
        ("roots", "classification"),
        "RootSet(roots=((-1.0, 1), (0.0, 1), (1.0, 1)), "
        "classification=<RootClassification.THREE_DISTINCT_REAL: 'ThreeDistinctReal'>)",
    ),
    (QuadratureConfig, ("rel_tol",), "QuadratureConfig(rel_tol=1e-10)"),
    (
        lambda: PanelDecomposition((0.0, 1.0), (Panel(0.0, 1.0, 1),)),
        ("breakpoints", "panels"),
        "PanelDecomposition(breakpoints=(0.0, 1.0), panels=(Panel(lo=0.0, hi=1.0, "
        "lo_multiplicity=1, hi_multiplicity=0, reciprocal=False),))",
    ),
    (
        lambda: IntegralResult(1.5, IntegralMethod.CLOSED_FORM, _disc()),
        ("value", "method", "discriminant", "error_estimate"),
        "IntegralResult(value=1.5, method=<IntegralMethod.CLOSED_FORM: 'closed-form'>, "
        "discriminant=DiscriminantResult(value=Fraction(-367, 1), "
        "sign=<Sign.NEGATIVE: 'Negative'>), error_estimate=0.0)",
    ),
    (
        lambda: ExpectationSet(Fraction(1, 3), 0, 0.25, Fraction(-1, 3)),
        ("x3", "x2y", "xy2", "y3"),
        "ExpectationSet(x3=Fraction(1, 3), x2y=0, xy2=0.25, y3=Fraction(-1, 3))",
    ),
    (
        lambda: BetaConstants(c_minus=1.5, c_plus=2.5),
        ("c_minus", "c_plus"),
        "BetaConstants(c_minus=1.5, c_plus=2.5)",
    ),
    (
        lambda: IdentityResidual("constants-ratio", None, 0.0),
        ("identity", "argument", "residual"),
        "IdentityResidual(identity='constants-ratio', argument=None, residual=0.0)",
    ),
    (
        lambda: Chart(0.5, -3, 2, [1.0, 0.0, -1.0, 0.0]),
        ("t", "s", "e", "g"),
        "Chart(t=0.5, s=-3, e=2, g=[1.0, 0.0, -1.0, 0.0])",
    ),
    (
        lambda: Panel(-1.0, 1.0, 0, 2, True),
        ("lo", "hi", "lo_multiplicity", "hi_multiplicity", "reciprocal"),
        "Panel(lo=-1.0, hi=1.0, lo_multiplicity=0, hi_multiplicity=2, reciprocal=True)",
    ),
]
_IDS = [text.partition("(")[0] for _, _, text in _RECORDS]


@pytest.mark.parametrize("build,fields,text", _RECORDS, ids=_IDS)
def test_record_repr_and_field_order(build, fields, text):
    record = build()
    assert repr(record) == text
    assert type(record)._fields == fields
    assert tuple(record) == tuple(getattr(record, name) for name in fields)


@pytest.mark.parametrize("build,fields,text", _RECORDS, ids=_IDS)
def test_record_is_immutable(build, fields, text):
    record = build()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None  # no __dict__ to hold it


@pytest.mark.parametrize("build,fields,text", _RECORDS, ids=_IDS)
def test_equal_records_hash_equal(build, fields, text):
    first, second = build(), build()
    assert first == second and first is not second
    if type(first) is Chart:  # its g is a list, so a chart does not hash
        return
    assert hash(first) == hash(second)


@pytest.mark.parametrize("build,fields,text", _RECORDS, ids=_IDS)
def test_record_pickles(build, fields, text):
    record = build()
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record and repr(copy) == text


def test_records_compare_as_tuples():
    # a record is a tuple: it unpacks, indexes and equals its values
    a, b, c, d = CubicCoeffs(1, 0, -1, 0)
    assert (a, b, c, d) == (1, 0, -1, 0)
    assert CubicCoeffs(1, 0, -1, 0) == (1, 0, -1, 0)
    assert CubicCoeffs(1, 0, -1, 0).as_tuple() == (1, 0, -1, 0)
    assert QuadratureConfig()[0] == 1e-10
