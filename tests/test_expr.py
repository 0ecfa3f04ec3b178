import gc
import importlib
import math
import random
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norlund import DomainFaultError, ExprSyntaxError, UnknownIdentifierError
from norlund.expr import Bin, Call, Const, Neg, Num, Var, evaluate, format, parse


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------


def test_parse_reciprocal_square():
    assert parse("1/t^2") == Bin("/", Num(1.0), Bin("^", Var(), Num(2.0)))


def test_parse_unary_minus_binds_looser_than_power():
    assert parse("-t^2") == Neg(Bin("^", Var(), Num(2.0)))


def test_parse_rejects_bare_minus_exponent():
    with pytest.raises(ExprSyntaxError) as err:
        parse("2^-t")
    assert err.value.offset == 2
    assert err.value.found == "-"
    # the parenthesized form is accepted
    assert parse("2^(-t)") == Bin("^", Num(2.0), Neg(Var()))


def test_precedence_fixtures():
    assert parse("1+2*3") == Bin("+", Num(1.0), Bin("*", Num(2.0), Num(3.0)))
    assert parse("2^t^2") == Bin("^", Num(2.0), Bin("^", Var(), Num(2.0)))
    assert parse("-t^2") == Neg(Bin("^", Var(), Num(2.0)))


def test_parse_calls_constants_and_numbers():
    assert parse("abs(t)") == Call("abs", (Var(),))
    assert parse("pow(t, 2.5)") == Call("pow", (Var(), Num(2.5)))
    assert parse("pi*e") == Bin("*", Const("pi"), Const("e"))
    assert parse("1.5e-3") == Num(0.0015)
    assert parse(" t + 1 ") == Bin("+", Var(), Num(1.0))


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse("x + 1")
    with pytest.raises(UnknownIdentifierError):
        parse("foo(t)")


def test_parse_arity_errors():
    with pytest.raises(ExprSyntaxError):
        parse("abs(t, 1)")
    with pytest.raises(ExprSyntaxError):
        parse("pow(t)")


def test_parse_syntax_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + ")
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        parse("(t+1")
    with pytest.raises(ExprSyntaxError):
        parse("t $ 1")
    with pytest.raises(ExprSyntaxError):
        parse("1e999")  # overflows to infinity


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------


def test_evaluate_basics():
    assert evaluate(parse("1/t^2"), 3.0) == 1.0 / 9.0
    assert evaluate(parse("abs(t)"), -2.0) == 2.0
    assert abs(evaluate(parse("exp(ln(t))"), 5.0) - 5.0) <= 5.0 * 2.3e-16
    assert evaluate(parse("pi"), 0.0) == math.pi
    assert evaluate(parse("2^(-t)"), 2.0) == 0.25
    assert evaluate(parse("pow(t,3)"), 2.0) == 8.0
    assert evaluate(parse("sin(t)^2+cos(t)^2"), 0.7) == pytest.approx(1.0, abs=1e-15)


def test_evaluate_domain_faults():
    with pytest.raises(DomainFaultError):
        evaluate(parse("1/t"), 0.0)
    with pytest.raises(DomainFaultError):
        evaluate(parse("ln(t)"), -1.0)
    with pytest.raises(DomainFaultError):
        evaluate(parse("ln(t)"), 0.0)
    with pytest.raises(DomainFaultError):
        evaluate(parse("sqrt(t)"), -4.0)
    with pytest.raises(DomainFaultError):
        evaluate(parse("t^(-2)"), 0.0)  # zero base, negative exponent
    with pytest.raises(DomainFaultError):
        evaluate(parse("t^0.5"), -1.0)  # negative base, fractional exponent
    with pytest.raises(DomainFaultError):
        evaluate(parse("exp(t)"), 1e4)  # overflow is a fault, not inf


def test_domain_fault_carries_point():
    with pytest.raises(DomainFaultError) as err:
        evaluate(parse("1/(t-1)"), 1.0)
    assert err.value.t == 1.0


def test_fault_names_the_node_of_the_tree_evaluated():
    first, second = parse("1/(t-1)"), parse("1/(t-1)")
    evaluate(first, 2.0)
    with pytest.raises(DomainFaultError) as err:
        evaluate(second, 1.0)
    assert err.value.node is second
    assert err.value.reason == "division by zero"


# ----------------------------------------------------------------------
# Formatting and the round trip
# ----------------------------------------------------------------------


def test_format_fixtures():
    assert format(parse("1/t^2")) == "1/t^2"
    assert format(Neg(Var())) == "-t"
    assert format(Bin("*", Bin("+", Var(), Num(1.0)), Num(2.0))) == "(t+1)*2"
    assert format(Bin("^", Num(2.0), Neg(Var()))) == "2^(-t)"
    assert format(Bin("+", Num(1.0), Bin("+", Num(2.0), Num(3.0)))) == "1+(2+3)"
    assert format(Bin("^", Bin("^", Var(), Num(2.0)), Num(3.0))) == "(t^2)^3"
    assert format(Bin("^", Var(), Bin("^", Num(2.0), Num(3.0)))) == "t^2^3"


def _random_tree(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.25:
        leaf = rng.randrange(4)
        if leaf == 0:
            return Var()
        if leaf == 1:
            return Const(rng.choice(("pi", "e")))
        if leaf == 2:
            return Num(float(rng.randrange(0, 50)))
        return Num(round(rng.uniform(0.0, 100.0), rng.randrange(1, 6)))
    kind = rng.randrange(4)
    if kind == 0:
        return Neg(_random_tree(rng, depth - 1))
    if kind == 1:
        op = rng.choice("+-*/^")
        return Bin(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if kind == 2:
        name = rng.choice(("abs", "exp", "ln", "sqrt", "sin", "cos"))
        return Call(name, (_random_tree(rng, depth - 1),))
    return Call("pow", (_random_tree(rng, depth - 1), _random_tree(rng, depth - 1)))


def test_round_trip_random_trees():
    rng = random.Random(97)
    for _ in range(2_000):
        tree = _random_tree(rng, rng.randrange(1, 8))
        assert parse(format(tree)) == tree


def test_evaluate_matches_python_semantics():
    rng = random.Random(1234)
    expr = parse("abs(t)^1.5 + sin(t)*cos(t) - t/(t^2+1)")
    for _ in range(50):
        t = rng.uniform(-10.0, 10.0)
        want = abs(t) ** 1.5 + math.sin(t) * math.cos(t) - t / (t * t + 1.0)
        assert evaluate(expr, t) == pytest.approx(want, rel=1e-15, abs=1e-15)


# ----------------------------------------------------------------------
# Differential test: compiled evaluation against a tree walk
# ----------------------------------------------------------------------


def _reference_pow(node, base, exponent, t):
    if base == 0.0 and exponent < 0.0:
        raise DomainFaultError(node, t, "zero raised to a negative power")
    try:
        return math.pow(base, exponent)
    except ValueError:
        raise DomainFaultError(node, t, "negative base with non-integer exponent") from None
    except OverflowError:
        raise DomainFaultError(node, t, "power overflows") from None


def _reference_walk(e, t):
    """The grammar's tree semantics, one node at a time; the right operand
    of '/' is evaluated before the left."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return t
    if isinstance(e, Const):
        return {"pi": math.pi, "e": math.e}[e.name]
    if isinstance(e, Neg):
        return -_reference_walk(e.operand, t)
    if isinstance(e, Bin):
        if e.op == "/":
            denominator = _reference_walk(e.right, t)
            if denominator == 0.0:
                raise DomainFaultError(e, t, "division by zero")
            return _reference_walk(e.left, t) / denominator
        x, y = _reference_walk(e.left, t), _reference_walk(e.right, t)
        if e.op == "+":
            return x + y
        if e.op == "-":
            return x - y
        if e.op == "*":
            return x * y
        return _reference_pow(e, x, y, t)
    if e.name == "pow":
        x, y = (_reference_walk(arg, t) for arg in e.args)
        return _reference_pow(e, x, y, t)
    v = _reference_walk(e.args[0], t)
    if e.name == "ln":
        if v <= 0.0:
            raise DomainFaultError(e, t, "logarithm of a non-positive value")
        return math.log(v)
    if e.name == "sqrt":
        if v < 0.0:
            raise DomainFaultError(e, t, "square root of a negative value")
        return math.sqrt(v)
    if e.name == "exp":
        try:
            return math.exp(v)
        except OverflowError:
            raise DomainFaultError(e, t, "exponential overflows") from None
    return {"abs": abs, "sin": math.sin, "cos": math.cos}[e.name](v)


def _reference_evaluate(e, t):
    value = _reference_walk(e, t)
    if not math.isfinite(value):
        raise DomainFaultError(e, t, "non-finite result")
    return value


def _assert_agrees(tree, t):
    """evaluate and the tree walk return the same float, bit for bit, or
    raise the same exception; a domain fault names the same node."""
    try:
        want = _reference_evaluate(tree, t)
    except Exception as exc:  # the exception is the outcome compared
        with pytest.raises(type(exc)) as err:
            evaluate(tree, t)
        assert type(err.value) is type(exc), (format(tree), t)
        if isinstance(exc, DomainFaultError):
            assert (err.value.reason, err.value.t) == (exc.reason, exc.t), (format(tree), t)
            assert err.value.node is exc.node, (format(tree), t)
        return
    got = evaluate(tree, t)
    assert type(got) is type(want), (format(tree), t)
    assert float(got).hex() == float(want).hex(), (format(tree), t)


# Every shape the compiler treats apart: each operator with a constant, the
# variable or a subexpression on either side, constant subtrees that fold
# and constant subtrees that fault, a constant negative exponent, and pairs
# of operands that both fault, where the first fault evaluated is raised.
_SHAPES = [
    "t+2", "2+t", "t+t", "sin(t)+2", "2+sin(t)", "sin(t)+cos(t)",
    "t-2", "2-t", "t-t", "sin(t)-2", "2-sin(t)", "sin(t)-cos(t)",
    "t*2", "2*t", "t*t", "sin(t)*2", "2*sin(t)", "sin(t)*cos(t)",
    "t/2", "2/t", "t/t", "sin(t)/2", "2/sin(t)", "sin(t)/cos(t)", "t/0", "t/(2-2)",
    "t^2", "2^t", "t^t", "t^0.5", "t^(-2)", "t^(-0.5)", "pow(t,-1)", "pow(t,3)",
    "pow(2,t)", "0^t", "(-2)^t", "10^t", "t^1000",
    "-t", "-2", "-sin(t)", "2*pi*t", "e^t", "-3*abs(t-2)",
    "abs(t)", "sin(t)", "cos(t)", "exp(t)", "ln(t)", "sqrt(t)", "exp(-t)", "ln(-t)",
    "(-2)^0.5+t", "ln(0)*t", "1/0", "sqrt(2-3)", "exp(1000)+t", "99^99^99",
    "sin(99^99*99^99)", "t+cos(99^99*99^99)", "99^99*99^99", "0*(99^99*99^99)+t",
    "ln(t)+sqrt(t)", "ln(t)-sqrt(t)", "ln(t)*sqrt(t)", "ln(t)/sqrt(t)", "ln(t)^sqrt(t)",
    "pow(ln(t),sqrt(t))", "ln(t)+cos(99^99*99^99)",
    "1/(1+2*t^2)", "1.5*t/(1+t^2)", "exp(-0.02*abs(t-50))", "pow(2.2,sin(0.3*t))",
]
_FIXED_POINTS = [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -2.5, 1e-300, 1e300, -1e300,
                 math.inf, -math.inf, math.nan, 0, 3, -2]


def test_evaluate_agrees_with_tree_walk_on_every_shape():
    for text in _SHAPES:
        tree = parse(text)
        for t in _FIXED_POINTS:
            _assert_agrees(tree, t)


_POINTS = st.one_of(
    st.sampled_from(_FIXED_POINTS),
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=-60, max_value=60).map(float),
    st.floats(),
)


@settings(max_examples=500, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=7), _POINTS, _POINTS)
def test_evaluate_agrees_with_tree_walk(rng, depth, t, u):
    tree = _random_tree(rng, depth)
    _assert_agrees(tree, t)
    _assert_agrees(tree, u)  # runs the closures compiled at t


# ----------------------------------------------------------------------
# Imports
# ----------------------------------------------------------------------


def test_reimport_releases_the_previous_import():
    saved = {name: module for name, module in sys.modules.items()
             if name == "norlund" or name.startswith("norlund.")}
    try:
        for name in saved:
            del sys.modules[name]
        first = weakref.ref(importlib.import_module("norlund.expr").Num)
        for name in [name for name in sys.modules if name.split(".")[0] == "norlund"]:
            del sys.modules[name]
        importlib.import_module("norlund.expr")
        gc.collect()
        assert first() is None
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == "norlund"]:
            del sys.modules[name]
        sys.modules.update(saved)
