import gc
import importlib
import itertools
import math
import random
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norlund import DomainFaultError, ExprSyntaxError, UnknownIdentifierError
from norlund import expr as expr_module
from norlund.cli import _function
from norlund.expr import Bin, Call, Const, Neg, Num, Var, evaluate, evaluate_column, format, parse
from norlund.integrals import _column_or_calls


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


def test_token_after_a_complete_expression():
    with pytest.raises(ExprSyntaxError) as err:
        parse("t)")
    assert err.value.offset == 1
    assert err.value.expected == ("end of input", "an operator")
    assert err.value.found == ")"


CHARACTER = ("a number", "a name", "an operator")
OPERAND = ("a number", "t", "a constant", "a function call", "'('")


@pytest.mark.parametrize(
    "text, error, offset, expected, found",
    [
        ("t $ 1", ExprSyntaxError, 2, CHARACTER, "$"),
        (".5", ExprSyntaxError, 0, CHARACTER, "."),
        ("é", ExprSyntaxError, 0, CHARACTER, "é"),
        ("1 + ", ExprSyntaxError, 4, OPERAND, "end of input"),
        ("(t+1", ExprSyntaxError, 4, ("')'",), "end of input"),
        ("t)", ExprSyntaxError, 1, ("end of input", "an operator"), ")"),
        ("2^-t", ExprSyntaxError, 2, OPERAND, "-"),
        ("x", UnknownIdentifierError, 0, None, "x"),
        ("foo(t)", UnknownIdentifierError, 0, None, "foo"),
        ("pow+1", UnknownIdentifierError, 0, None, "pow"),
        ("abs(t, 1)", ExprSyntaxError, 0, ("1 argument(s) to abs",), "2 arguments"),
        ("pow(t)", ExprSyntaxError, 0, ("2 argument(s) to pow",), "1 arguments"),
        ("sin()", ExprSyntaxError, 4, OPERAND, ")"),
        ("1e999", ExprSyntaxError, 0, ("a representable number",), "1e999"),
        ("", ExprSyntaxError, 0, OPERAND, "end of input"),
        ("  ", ExprSyntaxError, 2, OPERAND, "end of input"),
    ],
)
def test_parse_error_surface(text, error, offset, expected, found):
    """One row per raise site of the parser; found is an unknown identifier's name."""
    with pytest.raises(error) as err:
        parse(text)
    e = err.value
    assert type(e) is error
    if error is UnknownIdentifierError:
        assert (e.offset, e.name) == (offset, found)
    else:
        assert (e.offset, e.expected, e.found) == (offset, expected, found)


def test_parse_accepts_any_unicode_whitespace():
    # a tab and a no-break space
    assert parse("\tt\u00a0+\t1\u00a0") == Bin("+", Var(), Num(1.0))


# ----------------------------------------------------------------------
# Depth bound: parse refuses what would overflow Python's stack later
# ----------------------------------------------------------------------

TOO_DEEP = ("an expression nested at most 100 levels deep",)


@pytest.mark.parametrize(
    "text, offset, found",
    [
        ("(" * 300 + "t" + ")" * 300, 100, "("),
        ("(" * 100 + "t" + ")" * 100, 100, "t"),
        ("sin(" * 300 + "t" + ")" * 300, 400, "sin"),
        ("-" * 300 + "t", 100, "-"),
        ("2^" * 300 + "t", 200, "2"),
    ],
    ids=["parentheses", "parentheses-101", "calls", "negations", "powers"],
)
def test_parse_refuses_text_nested_too_deep(text, offset, found):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert (err.value.offset, err.value.expected, err.value.found) == (offset, TOO_DEEP, found)


@pytest.mark.parametrize("terms", [101, 1_000, 10_000])
def test_parse_refuses_a_chain_whose_tree_is_too_deep(terms):
    with pytest.raises(ExprSyntaxError) as err:
        parse("+".join(["t"] * terms))
    assert (err.value.offset, err.value.expected, err.value.found) == (0, TOO_DEEP, f"{terms} levels")


def _balanced(levels: int) -> str:
    text = "t"
    for _ in range(levels):
        text = f"({text})+({text})"
    return text


BALANCED = _balanced(10)  # 1,024 terms in a tree 11 levels deep


@pytest.mark.parametrize(
    "text, value",
    [
        ("(" * 99 + "t" + ")" * 99, 2.0),
        ("+".join(["t"] * 100), 200.0),
        ("*".join(["1"] * 99) + "*t", 2.0),
        ("-" * 98 + "t", 2.0),
        ("abs(" * 49 + "-" * 49 + "t" + ")" * 49, 2.0),
        (BALANCED, 2048.0),  # long but shallow
    ],
    ids=["parentheses", "chain", "product", "negations", "mixed", "balanced"],
)
def test_deepest_accepted_expressions_compile_evaluate_and_format(text, value):
    tree = parse(text)
    assert evaluate(tree, 2.0) == value
    assert parse(format(tree)) == tree


def test_non_parser_nodes_are_type_errors():
    with pytest.raises(TypeError, match=r"not an expression node: Bin\(op='%'"):
        evaluate(Bin("%", Num(1.0), Var()), 1.0)
    with pytest.raises(TypeError, match="not an expression node: 1.0"):
        format(Neg(1.0))
    with pytest.raises(TypeError, match=r"not an expression node: Bin\(op='%'"):
        format(Bin("%", Num(1.0), Var()))
    # "^" is the operator and pow a function: neither compiles as the other
    with pytest.raises(TypeError, match=r"not an expression node: Bin\(op='pow'"):
        evaluate(Bin("pow", Num(2.0), Var()), 1.0)
    with pytest.raises(TypeError, match=r"not an expression node: Call\(name='pow'"):
        evaluate(Call("pow", (Var(),)), 1.0)


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


@pytest.mark.parametrize("text", ["sin(t*1e308*10)", "cos(t*1e308*10)", "sin(1e308*10)"],
                         ids=["sin", "cos", "constant-folded"])
def test_sine_or_cosine_of_an_infinite_value_is_a_domain_fault(text):
    tree = parse(text)
    with pytest.raises(DomainFaultError) as err:
        evaluate(tree, 1.0)
    assert err.value.node is tree and err.value.t == 1.0
    assert err.value.reason == "sine or cosine of an infinite value"


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
    try:
        value = _reference_walk(e, t)
    except ValueError:  # math.sin or math.cos of an infinity
        raise DomainFaultError(e, t, "sine or cosine of an infinite value") from None
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
# of operands that both fault, where the first fault evaluated is raised,
# faults that a later operation would mask: 0^-inf is inf, and 1/inf 0,
# and numerators that fault over a zero denominator, where the grammar's
# order, a denominator first, names the division.
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
    "1/(0^t)", "exp(0-pow(0,t*1e308*10))", "1/t^(0-1e308*10)", "1/pow(0*t,0-1e308*10)",
    "ln(t)/(t-t)", "exp(1000*t)/(t-t)", "(1/t)/(t-t)", "sqrt(t)/(t-t)",
]
_FIXED_POINTS = [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -2.5, 1e-300, 1e300, -1e300,
                 math.inf, -math.inf, math.nan, 0, 3, -2]


def test_evaluate_agrees_with_tree_walk_on_every_shape():
    for text in _SHAPES:
        tree = parse(text)
        for t in _FIXED_POINTS:
            _assert_agrees(tree, t)


def test_the_fault_walk_runs_only_after_a_closure_raises(monkeypatch):
    """Values never pass through expr._fault, and a closure that raises
    calls it once to name the fault; a non-finite result needs no walk."""

    def refuse(e, t):
        raise AssertionError(f"_fault called at {t!r}")

    monkeypatch.setattr(expr_module, "_fault", refuse)
    faults = []  # (text, t, reason); a list, as the points 0, 0.0 and -0.0 are equal
    for text in _SHAPES:
        tree = parse(text)
        for t in _FIXED_POINTS:
            try:
                want = _reference_evaluate(tree, t)
            except DomainFaultError as exc:
                faults.append((text, t, exc.reason))
                continue
            assert float(evaluate(tree, t)).hex() == float(want).hex(), (text, t)
    calls = []
    monkeypatch.setattr(expr_module, "_fault", lambda e, t: calls.append((e, t)))
    for text, t, reason in faults:
        tree = parse(text)
        calls.clear()
        if reason == "non-finite result":
            with pytest.raises(DomainFaultError):
                evaluate(tree, t)
            assert calls == [], (text, t)
        else:  # the walk names nothing here, so evaluate raises the closure's own exception
            with pytest.raises((ArithmeticError, ValueError)):
                evaluate(tree, t)
            assert calls == [(tree, t)], (text, t)


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
# Column differential: evaluate_column and the CLI's function, read as
# integrals._column_or_calls reads it, against the tree walk, point by point
# ----------------------------------------------------------------------


def _walk_column(tree, points):
    """The tree walk's floats at points, or its first fault in point order."""
    try:
        return [_reference_evaluate(tree, t) for t in points]
    except Exception as exc:  # the first fault is the outcome compared
        return exc


def _assert_column_agrees(tree, points):
    """evaluate_column gives each point the tree walk's float, bit for bit,
    or raises if the walk faults at any point; and the CLI's function of
    the tree, read by integrals._column_or_calls, gives the same floats or
    raises the walk's first fault in point order: the same type, and for
    a domain fault the same reason, point and node."""
    f = _function(format(tree))
    tree = f.args[0]  # the tree f evaluates, whose nodes a fault names
    want = _walk_column(tree, points)
    if isinstance(want, Exception):
        with pytest.raises((ArithmeticError, ValueError)):
            evaluate_column(tree, points)
    else:
        got = evaluate_column(tree, points)
        assert [type(v) for v in got] == [type(v) for v in want], (format(tree), points)
        assert [v.hex() for v in map(float, got)] == [v.hex() for v in map(float, want)]
    # Float points, so that each value read has a float.hex to compare.
    points = [float(t) for t in points]
    want = _walk_column(tree, points)
    if not isinstance(want, Exception):
        got = itertools.chain.from_iterable(_column_or_calls(f, points))
        assert [v.hex() for v in got] == [v.hex() for v in want], (format(tree), points)
        return
    with pytest.raises(type(want)) as err:
        list(itertools.chain.from_iterable(_column_or_calls(f, points)))
    assert type(err.value) is type(want), (format(tree), points)
    if isinstance(want, DomainFaultError):
        assert (err.value.reason, err.value.t) == (want.reason, want.t), (format(tree), points)
        assert err.value.node is want.node, (format(tree), points)


def _faultless(tree, points):
    """The points at which the tree walk returns a value."""
    kept = []
    for t in points:
        try:
            _reference_evaluate(tree, t)
        except Exception:  # a fault at t: the point is left out
            continue
        kept.append(t)
    return kept


def test_evaluate_column_agrees_with_tree_walk_on_every_shape():
    for text in _SHAPES:
        tree = parse(text)
        _assert_column_agrees(tree, _FIXED_POINTS)  # faults, if any, in point order
        _assert_column_agrees(tree, _FIXED_POINTS[::-1] + _FIXED_POINTS[:4])  # repeated points
        kept = _faultless(tree, _FIXED_POINTS)
        _assert_column_agrees(tree, kept + kept[::-1])  # a column the kernels complete
        _assert_column_agrees(tree, [])
        for t in _FIXED_POINTS:  # a fault that is a column's only one
            _assert_column_agrees(tree, [t])


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=7),
       st.lists(_POINTS, max_size=12))
def test_evaluate_column_agrees_with_tree_walk(rng, depth, points):
    tree = _random_tree(rng, depth)
    _assert_column_agrees(tree, points + points[:3])
    _assert_column_agrees(tree, _faultless(tree, points) * 2)


def test_evaluate_column_returns_a_new_list_and_keeps_the_point_types():
    points = [3, -2, 0.5]
    column = evaluate_column(parse("t"), points)
    assert column == points and column is not points
    assert [type(v) for v in column] == [int, int, float]
    assert evaluate_column(parse("2+3"), (1.0, 2.0)) == [5.0, 5.0]


def test_trees_of_one_shape_share_one_compiled_kernel_from_a_bounded_cache():
    first, second = parse("1/(1+2*t^2)"), parse("3/(2+0.5*t^4)")
    values = [evaluate(first, 0.5), evaluate(first, 3.0)]
    assert evaluate_column(first, [0.5, 3.0]) == values
    assert evaluate_column(second, (0.5,)) == [evaluate(second, 0.5)]
    assert first._column.__code__ is second._column.__code__
    assert first._compiled.__code__ is second._compiled.__code__
    other = parse("1/(1+2*t)")  # another shape: t is read in place, not raised to a power
    assert evaluate_column(other, [0.5]) == [0.5]
    assert other._column.__code__ is not first._column.__code__
    shapes = [op.join("t" * n) for op in "+-*" for n in range(1, 95)]  # 282 shapes
    assert len(shapes) > expr_module._SHAPES_KEPT
    for text in shapes:
        evaluate_column(parse(text), [1.0])
    assert expr_module._kernels.cache_info().currsize == expr_module._SHAPES_KEPT


def test_a_column_with_an_overflowing_sum_of_finite_values_is_not_a_fault():
    points = [709.0, 709.0, 709.0]
    assert evaluate_column(parse("exp(t)"), points) == [math.exp(709.0)] * 3


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
