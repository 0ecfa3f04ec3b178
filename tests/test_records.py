"""The frozen record contract of the library's value types, checked against
a frozen-dataclass twin of each: the same fields, defaults and validation,
so that the two must agree on everything a caller can observe."""

from __future__ import annotations

import copy
import itertools
import math
import pickle
from dataclasses import dataclass, fields

import pytest

from norlund import cli, expr, inequalities, integrals, operators, series
from norlund.integrals import IntegralMode
from norlund.series import Verdict

# ----------------------------------------------------------------------
# The twins, one per record type, declared as the types were before they
# became records.  Each bears its record's name, so that reprs compare
# as they are.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


@dataclass(frozen=True)
class SeriesConfig:
    tol: float = 1e-12
    max_terms: int = 1_000_000

    __post_init__ = series.SeriesConfig.__post_init__


@dataclass(frozen=True)
class SeriesResult:
    value: float
    terms_used: int
    tail_estimate: float
    verdict: Verdict


@dataclass(frozen=True)
class StepPair:
    alpha: float
    beta: float

    __post_init__ = operators.StepPair.__post_init__


@dataclass(frozen=True)
class GridAlignment:
    k1: int
    residual: float


@dataclass(frozen=True)
class IntegralResult:
    value: float
    mode_used: IntegralMode
    mixed_modes: bool = False
    forward_diag: tuple | None = None
    backward_diag: tuple | None = None
    alignment: object = None


@dataclass(frozen=True)
class InequalityReport:
    lhs: float
    rhs: float
    margin: float
    holds: bool
    context: dict


@dataclass(frozen=True)
class MvtReport:
    K: float
    m: float
    M: float
    degenerate: bool


RECORDS = [expr.Num, expr.Var, expr.Const, expr.Neg, expr.Bin, expr.Call,
           series.SeriesConfig, series.SeriesResult, operators.StepPair, operators.GridAlignment,
           integrals.IntegralResult, inequalities.InequalityReport, inequalities.MvtReport]
TWIN = {record: globals()[record.__name__] for record in RECORDS}

_CONVERGED = (1.5, 40, 1e-13, Verdict.CONVERGED)
_TRUNCATED = (-0.25, 100, math.inf, Verdict.TRUNCATION_LIMIT)

# (record type, positional arguments): the fields of one sample instance,
# built alike for the record and its twin.
SAMPLES = [
    (expr.Num, (1.0,)),
    (expr.Num, (2.5,)),
    (expr.Var, ()),
    (expr.Const, ("e",)),
    (expr.Const, ("pi",)),
    (expr.Neg, (expr.Num(1.0),)),
    (expr.Bin, ("+", expr.Var(), expr.Num(2.0))),
    (expr.Bin, ("^", expr.Var(), expr.Num(2.0))),
    (expr.Call, ("sin", (expr.Var(),))),
    (expr.Call, ("pow", (expr.Var(), expr.Const("e")))),
    (series.SeriesConfig, (1e-12, 1_000_000)),
    (series.SeriesConfig, (1e-6, 2_000)),
    (series.SeriesResult, _CONVERGED),
    (series.SeriesResult, _TRUNCATED),
    (operators.StepPair, (1.0, 0.5)),
    (operators.StepPair, (0.0, 2.0)),
    (operators.GridAlignment, (3, 0.0)),
    (operators.GridAlignment, (0, 1e-12)),
    (integrals.IntegralResult, (1.0, IntegralMode.TELESCOPED, False, None, None,
                                operators.GridAlignment(2, 0.0))),
    (integrals.IntegralResult, (10 / 9, IntegralMode.STRICT, True,
                                (series.SeriesResult(*_CONVERGED), series.SeriesResult(*_TRUNCATED)),
                                None, None)),
    (inequalities.InequalityReport, (1.0, 2.0, 1.0, True, {"p": 2.0, "mode_used": "strict"})),
    (inequalities.MvtReport, (0.5, 0.0, 1.0, False)),
    (inequalities.MvtReport, (0.0, 0.0, 0.0, True)),
]
IDS = [f"{record.__name__}-{i}" for i, (record, _) in enumerate(SAMPLES)]


def _pair(record, args):
    return record(*args), TWIN[record](*args)


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as error:
        return str(error)


def test_every_record_type_has_a_twin_and_a_sample():
    assert len(RECORDS) == 13
    assert {record for record, _ in SAMPLES} == set(RECORDS)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_field_order_and_match_args_agree(record):
    twin = TWIN[record]
    assert record.__match_args__ == tuple(f.name for f in fields(twin)) == twin.__match_args__


@pytest.mark.parametrize("record, args", SAMPLES, ids=IDS)
def test_repr_and_hash_agree(record, args):
    mine, theirs = _pair(record, args)
    assert repr(mine) == repr(theirs)
    assert _hash_or_error(mine) == _hash_or_error(theirs)


def test_a_report_holding_a_dict_is_unhashable():
    report = inequalities.InequalityReport(1.0, 2.0, 1.0, True, {"p": 2.0})
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(report)


def test_equality_agrees_within_and_across_types():
    pairs = [_pair(record, args) for record, args in SAMPLES]
    # Equal fields built afresh, so that equality never rests on identity.
    pairs += [_pair(record, copy.deepcopy(args)) for record, args in SAMPLES]
    for (x, tx), (y, ty) in itertools.product(pairs, repeat=2):
        assert (x == y) is (tx == ty), (x, y)
        assert (x != y) is (tx != ty), (x, y)
    assert expr.Num(1.0) != expr.Const("e")
    assert expr.Var() == expr.Var()
    assert expr.Num(1.0) != Num(1.0)  # a record never equals its twin


@pytest.mark.parametrize("record, args", SAMPLES, ids=IDS)
def test_positional_keyword_and_default_construction_agree(record, args):
    twin = TWIN[record]
    keywords = dict(zip(record.__match_args__, args))
    assert record(*args) == record(**keywords)
    assert repr(record(**keywords)) == repr(twin(**keywords))
    defaults = {f.name for f in fields(twin) if f.name in vars(twin)}
    required = {name: value for name, value in keywords.items() if name not in defaults}
    assert repr(record(**required)) == repr(twin(**required))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_bad_arguments_raise_the_same_type_error(record):
    twin = TWIN[record]
    for build in (lambda cls: cls(*range(len(record.__match_args__) + 1)),
                  lambda cls: cls(no_such_field=1)):
        with pytest.raises(TypeError):
            build(record)
        with pytest.raises(TypeError):
            build(twin)


@pytest.mark.parametrize(
    "record, kwargs",
    [
        (series.SeriesConfig, {"tol": 0.0}),
        (series.SeriesConfig, {"tol": math.inf}),
        (series.SeriesConfig, {"tol": True}),
        (series.SeriesConfig, {"tol": "1e-6"}),
        (series.SeriesConfig, {"max_terms": 1.5}),
        (series.SeriesConfig, {"max_terms": 15}),
        (operators.StepPair, {"alpha": math.inf, "beta": 1.0}),
        (operators.StepPair, {"alpha": -1.0, "beta": 1.0}),
        (operators.StepPair, {"alpha": 0.0, "beta": 0.0}),
    ],
)
def test_post_init_errors_agree(record, kwargs):
    with pytest.raises(ValueError) as mine:
        record(**kwargs)
    with pytest.raises(ValueError) as theirs:
        TWIN[record](**kwargs)
    assert str(mine.value) == str(theirs.value)


@pytest.mark.parametrize("record, args", SAMPLES, ids=IDS)
def test_copy_and_pickle_round_trips_agree(record, args):
    mine, theirs = _pair(record, args)
    for round_trip in (copy.copy, lambda value: pickle.loads(pickle.dumps(value))):
        mine_back, theirs_back = round_trip(mine), round_trip(theirs)
        assert type(mine_back) is record and mine_back == mine
        assert repr(mine_back) == repr(theirs_back)
        assert _hash_or_error(mine_back) == _hash_or_error(theirs_back)


@pytest.mark.parametrize("record, args", SAMPLES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, args):
    value = record(*args)
    for name in (*record.__match_args__, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == repr(record(*args))


def test_a_compiled_tree_keeps_its_equality_hash_and_repr():
    tree = expr.parse("sin(t)+2*t^2")
    fresh = expr.parse("sin(t)+2*t^2")
    assert expr.evaluate(tree, 1.0) == expr.evaluate_column(tree, [1.0])[0]
    assert tree == fresh and hash(tree) == hash(fresh) and repr(tree) == repr(fresh)


@pytest.mark.parametrize("record, args", SAMPLES, ids=IDS)
def test_the_json_encoding_is_the_field_tuple(record, args):
    mine, theirs = _pair(record, args)
    expected = {f.name: getattr(theirs, f.name) for f in fields(theirs)}
    assert cli._json_default(mine) == expected
    with pytest.raises(TypeError):
        cli._json_default(theirs)
