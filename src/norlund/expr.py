"""Small arithmetic expression language over the time variable t.

Grammar (whitespace insignificant):

    expr    := operand (("+" | "-" | "*" | "/") operand)*
    operand := "-" operand | primary ("^" operand)?
    primary := NUMBER | "t" | "pi" | "e"
             | NAME "(" expr ("," expr)* ")"
             | "(" expr ")"

Operators bind tighter further down the precedence table, _PRECEDENCE:

    + -   left associative
    * /   left associative
    -     unary minus
    ^     right associative: -t^2 is -(t^2), 2^t^2 is 2^(t^2)

The exponent of "^" may not start with a bare unary minus: write
2^(-t), not 2^-t.  Numbers are decimal with optional fraction and
exponent part.  Unary functions: abs, exp, ln, sqrt, sin, cos;
pow(x, y) is the binary power function.

evaluate(e, t) evaluates e at one point; evaluate_column(e, points) at
many, a node at a time, as the column form integrals.Samples reads.
evaluate raises a domain fault as a DomainFaultError naming the node,
the point and the reason of the first fault in the grammar's order: left
to right, except that a denominator comes before its numerator.

Parsing, compiling, evaluating and formatting all recurse over the tree,
so parse refuses an expression nested more than _MAX_DEPTH levels deep,
in its text or in its tree, with an ExprSyntaxError.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from collections.abc import Sequence

from ._record import Record
from .errors import DomainFaultError, ExprSyntaxError, UnknownIdentifierError

__all__ = [
    "Bin",
    "Call",
    "Const",
    "Expr",
    "Neg",
    "Num",
    "Var",
    "evaluate",
    "evaluate_column",
    "format",
    "parse",
]


class Num(Record):
    value: float


class Var(Record):
    """The single variable t."""


class Const(Record):
    name: str  # "pi" or "e"


class Neg(Record):
    operand: Expr


class Bin(Record):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


class Call(Record):
    name: str
    args: tuple[Expr, ...]


Expr = Num | Var | Const | Neg | Bin | Call

_CONSTANTS = {"pi": math.pi, "e": math.e}

# The one statement of operator precedence, read by the parser and the
# formatter: a higher number binds tighter.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_PREC_NEG = 3
_PREC_ATOM = 5

# One token per match; a bad character is any other non-space one.
_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<symbol>[-+*/^(),])|(?P<bad>\S)"
)
_OPERAND = ("a number", "t", "a constant", "a function call", "'('")

# The deepest nesting parse accepts: of the parser's own recursion (each
# level holds at most six Python frames: operand, primary, call and three
# of binary) and of the tree it builds (one frame per level to compile,
# evaluate or format it), well inside Python's default limit of 1000.
_MAX_DEPTH = 100
_TOO_DEEP = (f"an expression nested at most {_MAX_DEPTH} levels deep",)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) per token, a symbol being its own kind."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, token = m.lastgroup, m.group()
        if kind == "bad":
            raise ExprSyntaxError(m.start(), ("a number", "a name", "an operator"), token)
        tokens.append((token if kind == "symbol" else kind, token, m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0  # operand calls open on the stack

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str) -> tuple[str, str, int]:
        token = self.peek()
        if token[0] != kind:
            raise ExprSyntaxError(token[2], (f"'{kind}'",), token[1] or "end of input")
        return self.advance()

    def parse(self) -> Expr:
        node = self.binary(1)
        token = self.peek()
        if token[0] != "end":
            raise ExprSyntaxError(token[2], ("end of input", "an operator"), token[1])
        # A tree has at most one node per token, so only a long text can
        # hold a tree too deep, as a long chain like t+t+...+t does.
        if len(self.tokens) > _MAX_DEPTH:
            height = _height(node)
            if height > _MAX_DEPTH:
                raise ExprSyntaxError(0, _TOO_DEEP, f"{height} levels")
        return node

    def binary(self, min_prec: int) -> Expr:
        # Precedence climbing (Pratt, "Top down operator precedence", 1973)
        # over the operators binding at least min_prec; operand takes "^".
        node = self.operand()
        while (prec := _PRECEDENCE.get(self.peek()[0], 0)) >= min_prec:
            op = self.advance()[0]
            node = Bin(op, node, self.binary(prec + 1))
        return node

    def operand(self) -> Expr:
        # Every recursion of the parser passes through here.
        kind, text, pos = self.peek()
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ExprSyntaxError(pos, _TOO_DEEP, text or "end of input")
        if kind == "-":
            self.advance()
            node = Neg(self.operand())
        else:
            node = self.primary()
            if self.peek()[0] == "^":
                self.advance()
                token = self.peek()
                if token[0] == "-":
                    raise ExprSyntaxError(
                        token[2], _OPERAND, "-",
                        hint="a '^' exponent starting with '-' must be parenthesized",
                    )
                node = Bin("^", node, self.operand())
        self.depth -= 1
        return node

    def primary(self) -> Expr:
        kind, text, pos = self.peek()
        if kind == "number":
            self.advance()
            value = float(text)
            if not math.isfinite(value):
                raise ExprSyntaxError(pos, ("a representable number",), text)
            return Num(value)
        if kind == "(":
            self.advance()
            node = self.binary(1)
            self.expect(")")
            return node
        if kind == "name":
            self.advance()
            if self.peek()[0] == "(":
                return self.call(text, pos)
            if text == "t":
                return Var()
            if text in _CONSTANTS:
                return Const(text)
            raise UnknownIdentifierError(text, pos)
        raise ExprSyntaxError(pos, _OPERAND, text or "end of input")

    def call(self, name: str, pos: int) -> Expr:
        # The compiler's tables give each function's arity.
        arity = 1 if (Call, name) in _UNARY else 2 if (Call, name) in _BINARY else 0
        if not arity:
            raise UnknownIdentifierError(name, pos)
        self.expect("(")
        args = [self.binary(1)]
        while self.peek()[0] == ",":
            self.advance()
            args.append(self.binary(1))
        self.expect(")")
        if len(args) != arity:
            raise ExprSyntaxError(
                pos, (f"{arity} argument(s) to {name}",), f"{len(args)} arguments"
            )
        return Call(name, tuple(args))


def _height(e: Expr) -> int:
    """The number of node levels in e, counted without recursion."""
    height, level = 0, [e]
    while level:
        height += 1
        level = [child for node in level for child in _operator(node)[1]]
    return height


def parse(text: str) -> Expr:
    """Parse expression text into a tree; see the module grammar.

    Raises ExprSyntaxError for text that does not parse or that nests
    more than _MAX_DEPTH (100) levels deep.
    """
    return _Parser(text).parse()


# ----------------------------------------------------------------------
# Evaluation.  A tree compiles once into one Python expression over t,
# written while the compiler walks the tree from its rows' texts, with
# each constant and routine passed in as an argument (c0, c1, ...), so
# that trees of one shape share one compiled code object, kept in a
# bounded cache.  From it come a function of t, which evaluate runs, and
# one list comprehension over the points, which evaluate_column runs: one
# interpreted loop per column rather than one map per node (MonetDB/X100,
# 2005, fuses operators the same way).  The code only computes, doing the
# tree's floating-point operations with its rows' routines, and lets a
# routine's exception out.  Where it raises, evaluate calls _fault, which
# walks the tree again in the grammar's order and raises the
# DomainFaultError naming the node, the point and the reason.  A subtree
# free of t that evaluates without raising is replaced by its value.
# ----------------------------------------------------------------------

_SHAPES_KEPT = 256  # compiled shapes cached, the least recently used dropped first


def _pow(x: float, y: float) -> float:
    """math.pow, but a zero base raised to a negative power, -inf too, raises
    ZeroDivisionError (where math.pow(0.0, -inf) is inf), as the grammar's
    semantics has it."""
    if x == 0.0 and y < 0.0:
        raise ZeroDivisionError("zero raised to a negative power")
    return math.pow(x, y)


_POW_FAULTS = {ZeroDivisionError: "zero raised to a negative power",
               ValueError: "negative base with non-integer exponent", OverflowError: "power overflows"}

# Each operator's row, by node kind and operator: its text, a Python
# expression of operands {0} and {1} and routine {r}, the routine itself,
# and the DomainFaultError reason for each exception that routine raises.
# A ValueError of sin or cos, at an infinity, names the tree evaluated
# instead (see evaluate).
_UNARY = {
    (Neg, "-"): ("-{0}", operator.neg, {}),
    (Call, "abs"): ("{r}({0})", abs, {}),
    (Call, "exp"): ("{r}({0})", math.exp, {OverflowError: "exponential overflows"}),
    (Call, "ln"): ("{r}({0})", math.log, {ValueError: "logarithm of a non-positive value"}),
    (Call, "sqrt"): ("{r}({0})", math.sqrt, {ValueError: "square root of a negative value"}),
    (Call, "sin"): ("{r}({0})", math.sin, {}),
    (Call, "cos"): ("{r}({0})", math.cos, {}),
}
_BINARY = {
    (Bin, "+"): ("{0}+{1}", operator.add, {}),
    (Bin, "-"): ("{0}-{1}", operator.sub, {}),
    (Bin, "*"): ("{0}*{1}", operator.mul, {}),
    (Bin, "/"): ("{0}/{1}", operator.truediv, {ZeroDivisionError: "division by zero"}),
    (Bin, "^"): ("{r}({0},{1})", _pow, _POW_FAULTS),
    (Call, "pow"): ("{r}({0},{1})", _pow, _POW_FAULTS),
}


def _operator(e: Expr):
    """e's row, or None for a leaf or an operator of no row, and its operand nodes."""
    kind = type(e)  # tested by identity: class patterns cost twice as much per node
    if kind is Bin:
        key, nodes = (Bin, e.op), (e.left, e.right)
    elif kind is Call:
        key, nodes = (Call, e.name), e.args
    elif kind is Neg:
        key, nodes = (Neg, "-"), (e.operand,)
    else:
        return None, ()
    return (_UNARY if len(nodes) == 1 else _BINARY).get(key), nodes


_isfinite = math.isfinite


def _argument(args: list, value) -> str:
    """The name of value as an argument of the compiled code, appended to args."""
    args.append(value)
    return f"c{len(args) - 1}"


def _compile(e: Expr, args: list):
    """(text, value): e as a Python expression over t, reading the constants
    and routines it appends to args by name; or, for a subtree free of t
    that evaluates without raising, text None and e's value."""
    kind = type(e)  # tested by identity, as in _operator
    if kind is Var:
        return "t", None
    if kind is Num:
        return None, e.value
    if kind is Const:
        return None, _CONSTANTS[e.name]
    row, nodes = _operator(e)
    if row is None:
        raise TypeError(f"not an expression node: {e!r}")
    text, routine, _ = row
    texts, values = zip(*[_compile(x, args) for x in nodes])
    if routine is _pow:  # _pow is math.pow but at a zero base and a -inf exponent:
        (bt, et), (x, y) = texts, values  # a constant that rules that pair out picks math.pow
        if bt is None and x != 0.0 or et is None and y != -math.inf:
            routine = math.pow
    if texts.count(None) == len(texts):
        try:
            return None, routine(*values)
        except (ArithmeticError, ValueError):
            pass  # kept, so that evaluate names the fault at the point evaluated
    reads = [_argument(args, v) if t is None else t if t == "t" else f"({t})"
             for t, v in zip(texts, values)]
    r = _argument(args, routine) if "{r}" in text else None
    return text.format(*reads, r=r), None


@functools.lru_cache(maxsize=_SHAPES_KEPT)
def _kernels(text: str, count: int):
    """The code of a tree's shape: a function of its count arguments that
    returns its (pointwise, column) functions."""
    params = ", ".join(f"c{i}" for i in range(count))
    return eval(f"lambda {params}: (lambda t: {text}, lambda ts: [{text} for t in ts])", {})


def _compiled(e: Expr):
    """e's (pointwise, column) functions, kept on the root so that later
    calls run them only."""
    args = []
    text, value = _compile(e, args)
    if text is None:  # the whole tree is a constant
        text = _argument(args, value)
    run, column = _kernels(text, len(args))(*args)
    object.__setattr__(e, "_compiled", run)
    object.__setattr__(e, "_column", column)
    return run, column


def _fault(e: Expr, t: float) -> float:
    """e's value at t, walked in the grammar's order (a denominator before
    its numerator) with the rows' routines; the first fault met raises the
    DomainFaultError naming its node and reason.  evaluate calls it only
    after e's code raised, to name the fault."""
    row, nodes = _operator(e)
    if row is None:  # a leaf: t, or a constant
        text, value = _compile(e, [])
        return t if text else value
    _, routine, reasons = row
    if routine is operator.truediv:  # a zero denominator faults before its numerator is read
        y = _fault(nodes[1], t)
        if y == 0.0:
            raise DomainFaultError(e, t, reasons[ZeroDivisionError])
        values = _fault(nodes[0], t), y
    else:
        values = [_fault(x, t) for x in nodes]
    try:
        return routine(*values)
    except tuple(reasons) as error:
        raise DomainFaultError(e, t, reasons[type(error)]) from None


def evaluate(e: Expr, t: float) -> float:
    """Evaluate with real semantics; domain faults raise, never return NaN."""
    try:
        run = e._compiled
    except AttributeError:
        run = _compiled(e)[0]
    try:
        value = run(t)
    except (ArithmeticError, ValueError):
        try:
            _fault(e, t)
        except ValueError:  # from sin or cos only: every other row names its faults
            raise DomainFaultError(e, t, "sine or cosine of an infinite value") from None
        raise
    if not _isfinite(value):
        raise DomainFaultError(e, t, "non-finite result")
    return value


def evaluate_column(e: Expr, points: Sequence[float]) -> list:
    """[evaluate(e, t) for t in points], computed in one loop with
    evaluate's float operations.  Where evaluate faults at some point,
    this raises an ArithmeticError or ValueError that names no point."""
    try:
        column = e._column
    except AttributeError:
        column = _compiled(e)[1]
    values = column(points)
    # A float sum is finite only if every term is; a sum that overflows is checked term by term.
    if _isfinite(sum(values)) or all(map(_isfinite, values)):
        return values
    raise ArithmeticError("a value that is not finite")


def _format_number(v: float) -> str:
    # Integral values render without the trailing .0; exact for floats
    # below 2**53 so the round trip is unaffected.
    if v.is_integer() and abs(v) < 2.0**53:
        return repr(int(v))
    return repr(v)


def _format(e: Expr, min_prec: int) -> str:
    match e:
        case Num(value=v):
            text, prec = _format_number(v), _PREC_ATOM
        case Var():
            text, prec = "t", _PREC_ATOM
        case Const(name=name):
            text, prec = name, _PREC_ATOM
        case Neg(operand=x):
            text, prec = "-" + _format(x, _PREC_NEG), _PREC_NEG
        case Bin(op=op, left=l, right=r) if op in _PRECEDENCE:
            prec = _PRECEDENCE[op]
            # A left-associative operator's right side binds tighter.  The
            # base of "^" renders at atom level, so (a^b)^c and (-a)^b keep
            # their structure, and its exponent may chain right.
            left, right = (prec + 1, prec) if op == "^" else (prec, prec + 1)
            text = _format(l, left) + op + _format(r, right)
        case Call(name=name, args=args):
            text = name + "(" + ",".join(_format(arg, 0) for arg in args) + ")"
            prec = _PREC_ATOM
        case _:
            raise TypeError(f"not an expression node: {e!r}")
    if prec < min_prec:
        return "(" + text + ")"
    return text


def format(e: Expr) -> str:
    """Render with minimal parentheses; parse(format(e)) reproduces e.

    Assumes a parser-producible tree, in particular nonnegative numeric
    literals (the parser renders negation as a Neg node).
    """
    return _format(e, 0)
