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

Parsing, compiling, evaluating and formatting all recurse over the tree,
so parse refuses an expression nested more than _MAX_DEPTH levels deep,
in its text or in its tree, with an ExprSyntaxError.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Tuple

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
    "format",
    "parse",
]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    """The single variable t."""


@dataclass(frozen=True)
class Const:
    name: str  # "pi" or "e"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: Tuple["Expr", ...]


Expr = Num | Var | Const | Neg | Bin | Call

_CONSTANTS = {"pi": math.pi, "e": math.e}
# Each unary function's math routine, the exception it raises outside the
# function's domain and the DomainFaultError reason for it, or None, None;
# evaluate turns the ValueError of sin or cos at an infinity into a fault.
_UNARY = {
    "abs": (abs, None, None),
    "exp": (math.exp, OverflowError, "exponential overflows"),
    "ln": (math.log, ValueError, "logarithm of a non-positive value"),
    "sqrt": (math.sqrt, ValueError, "square root of a negative value"),
    "sin": (math.sin, None, None),
    "cos": (math.cos, None, None),
}

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
        arity = 1 if name in _UNARY else 2 if (Call, name) in _BINARY else 0
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
        level = [child for node in level for child in _children(node)]
    return height


def _children(e: Expr) -> tuple:
    match e:
        case Neg(operand=x):
            return (x,)
        case Bin(left=l, right=r):
            return l, r
        case Call(args=args):
            return args
    return ()


def parse(text: str) -> Expr:
    """Parse expression text into a tree; see the module grammar.

    Raises ExprSyntaxError for text that does not parse or that nests
    more than _MAX_DEPTH (100) levels deep.
    """
    return _Parser(text).parse()


# ----------------------------------------------------------------------
# Evaluation.  A tree compiles once into one closure per node (Feeley and
# Lapalme, "Using closures for code generation", 1987); the closures do the
# tree's floating-point operations in the tree's order and raise the same
# faults.  Compilation yields an operand: the variable, a constant, or a
# closure.  Constant and variable operands are read in place rather than
# called, and a subtree free of t that evaluates without a fault is
# replaced by its value.
# ----------------------------------------------------------------------

_VAR, _CONST, _FUNC = range(3)


def _identity(t: float) -> float:
    return t


def _closure(operand):
    kind, x = operand
    if kind == _VAR:
        return _identity
    if kind == _CONST:
        return lambda t: x
    return x


def _add(node, left, right):
    (lk, a), (rk, b) = left, right
    if lk == _CONST and rk == _VAR:
        return lambda t: a + t
    if lk == _VAR and rk == _CONST:
        return lambda t: t + b
    f, g = _closure(left), _closure(right)
    if lk == _CONST:
        return lambda t: a + g(t)
    if rk == _CONST:
        return lambda t: f(t) + b
    return lambda t: f(t) + g(t)


def _subtract(node, left, right):
    (lk, a), (rk, b) = left, right
    if lk == _CONST and rk == _VAR:
        return lambda t: a - t
    if lk == _VAR and rk == _CONST:
        return lambda t: t - b
    f, g = _closure(left), _closure(right)
    if lk == _CONST:
        return lambda t: a - g(t)
    if rk == _CONST:
        return lambda t: f(t) - b
    return lambda t: f(t) - g(t)


def _multiply(node, left, right):
    (lk, a), (rk, b) = left, right
    if lk == _CONST and rk == _VAR:
        return lambda t: a * t
    if lk == _VAR and rk == _CONST:
        return lambda t: t * b
    f, g = _closure(left), _closure(right)
    if lk == _CONST:
        return lambda t: a * g(t)
    if rk == _CONST:
        return lambda t: f(t) * b
    return lambda t: f(t) * g(t)


def _divide(node, left, right):
    f, g = _closure(left), _closure(right)
    kind, b = right
    if kind == _CONST and b != 0.0:
        return lambda t: f(t) / b

    def divide(t):
        denominator = g(t)  # before the numerator, as the grammar's semantics order them
        if denominator == 0.0:
            raise DomainFaultError(node, t, "division by zero")
        return f(t) / denominator

    return divide


def _power(node, base, exponent):
    f, pow = _closure(base), math.pow
    kind, c = exponent
    if kind == _CONST and not c < 0.0:  # a zero base cannot meet a negative exponent

        def power(t):
            x = f(t)
            try:
                return pow(x, c)
            except ValueError:
                raise DomainFaultError(node, t, "negative base with non-integer exponent") from None
            except OverflowError:
                raise DomainFaultError(node, t, "power overflows") from None

        return power

    g = _closure(exponent)

    def power(t):
        x = f(t)
        y = g(t)
        if x == 0.0 and y < 0.0:
            raise DomainFaultError(node, t, "zero raised to a negative power")
        try:
            return pow(x, y)
        except ValueError:
            raise DomainFaultError(node, t, "negative base with non-integer exponent") from None
        except OverflowError:
            raise DomainFaultError(node, t, "power overflows") from None

    return power


# Each binary node's compiler, by node kind and operator.
_BINARY = {(Bin, "+"): _add, (Bin, "-"): _subtract, (Bin, "*"): _multiply, (Bin, "/"): _divide,
           (Bin, "^"): _power, (Call, "pow"): _power}


def _unary(node, name, operand):
    """fn(operand), with fn's domain error raised as a DomainFaultError."""
    f = _closure(operand)
    fn, error, reason = _UNARY[name]
    if error is None:
        return lambda t: fn(f(t))

    def guarded(t):
        v = f(t)
        try:
            return fn(v)
        except error:
            raise DomainFaultError(node, t, reason) from None

    return guarded


_isfinite = math.isfinite


def _compile(e: Expr):
    """The operand (kind, payload) that computes e."""
    match e:
        case Num(value=v):
            return _CONST, v
        case Var():
            return _VAR, None
        case Const(name=name):
            return _CONST, _CONSTANTS[name]
        case Neg(operand=x):
            operands = (_compile(x),)
            f = _closure(*operands)
            fn = lambda t: -f(t)  # noqa: E731
        case Bin(op=op, left=l, right=r) | Call(name=op, args=(l, r)) if (type(e), op) in _BINARY:
            operands = (_compile(l), _compile(r))
            fn = _BINARY[type(e), op](e, *operands)
        case Call(name=name, args=(x,)) if name in _UNARY:
            operands = (_compile(x),)
            fn = _unary(e, name, *operands)
        case _:
            raise TypeError(f"not an expression node: {e!r}")
    if all(kind == _CONST for kind, _ in operands):
        try:
            return _CONST, fn(0.0)  # t is read only to report a fault
        except (DomainFaultError, ValueError):
            pass  # keep the closure, so the fault is raised at the point evaluated
    return _FUNC, fn


def evaluate(e: Expr, t: float) -> float:
    """Evaluate with real semantics; domain faults raise, never return NaN.

    The first call compiles the tree and keeps the result on its root, so
    later calls on the same tree run the compiled closures only.
    """
    try:
        run = e._compiled
    except AttributeError:
        run = _closure(_compile(e))
        object.__setattr__(e, "_compiled", run)
    try:
        value = run(t)
    except ValueError:  # from sin or cos only: ln, sqrt and pow raise faults
        raise DomainFaultError(e, t, "sine or cosine of an infinite value") from None
    if not _isfinite(value):
        raise DomainFaultError(e, t, "non-finite result")
    return value


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
