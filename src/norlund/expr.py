"""Small arithmetic expression language over the time variable t.

Grammar (whitespace insignificant):

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := primary ("^" power)?          right associative
    primary := NUMBER | "t" | "pi" | "e"
             | NAME "(" expr ("," expr)* ")"
             | "(" expr ")"

The exponent of "^" may not start with a bare unary minus: write
2^(-t), not 2^-t.  Numbers are decimal with optional fraction and
exponent part.  Unary functions: abs, exp, ln, sqrt, sin, cos;
pow(x, y) is the binary power function.
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
_UNARY_FUNCTIONS = ("abs", "exp", "ln", "sqrt", "sin", "cos")

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_SYMBOLS = "+-*/^(),"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    length = len(text)
    while pos < length:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            tokens.append(("number", m.group(), pos))
            pos = m.end()
            continue
        m = _NAME_RE.match(text, pos)
        if m:
            tokens.append(("name", m.group(), pos))
            pos = m.end()
            continue
        raise ExprSyntaxError(pos, ("a number", "a name", "an operator"), ch)
    tokens.append(("end", "", length))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

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
        node = self.expr()
        token = self.peek()
        if token[0] != "end":
            raise ExprSyntaxError(token[2], ("end of input", "an operator"), token[1])
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = Bin(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = Bin(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.primary()
        if self.peek()[0] == "^":
            self.advance()
            token = self.peek()
            if token[0] == "-":
                raise ExprSyntaxError(
                    token[2],
                    ("a number", "t", "a constant", "a function call", "'('"),
                    "-",
                    hint="a '^' exponent starting with '-' must be parenthesized",
                )
            return Bin("^", base, self.power())
        return base

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
            node = self.expr()
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
        raise ExprSyntaxError(
            pos, ("a number", "t", "a constant", "a function call", "'('"), text or "end of input"
        )

    def call(self, name: str, pos: int) -> Expr:
        if name not in _UNARY_FUNCTIONS and name != "pow":
            raise UnknownIdentifierError(name, pos)
        self.expect("(")
        args = [self.expr()]
        while self.peek()[0] == ",":
            self.advance()
            args.append(self.expr())
        self.expect(")")
        arity = 2 if name == "pow" else 1
        if len(args) != arity:
            raise ExprSyntaxError(
                pos, (f"{arity} argument(s) to {name}",), f"{len(args)} arguments"
            )
        return Call(name, tuple(args))


def parse(text: str) -> Expr:
    """Parse expression text into a tree; see the module grammar."""
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


def _add(left, right):
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


def _subtract(left, right):
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


def _multiply(left, right):
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


def _unary(node, name, operand):
    f = _closure(operand)
    if name in ("abs", "sin", "cos"):
        fn = abs if name == "abs" else getattr(math, name)
        return lambda t: fn(f(t))
    if name == "ln":
        log = math.log

        def ln(t):
            v = f(t)
            if v <= 0.0:
                raise DomainFaultError(node, t, "logarithm of a non-positive value")
            return log(v)

        return ln
    if name == "sqrt":
        sqrt = math.sqrt

        def square_root(t):
            v = f(t)
            if v < 0.0:
                raise DomainFaultError(node, t, "square root of a negative value")
            return sqrt(v)

        return square_root
    exp = math.exp

    def exponential(t):
        v = f(t)
        try:
            return exp(v)
        except OverflowError:
            raise DomainFaultError(node, t, "exponential overflows") from None

    return exponential


_ARITHMETIC = {"+": _add, "-": _subtract, "*": _multiply}
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
            kind, v = operand = _compile(x)
            if kind == _CONST:
                return _CONST, -v
            f = _closure(operand)
            return _FUNC, lambda t: -f(t)
        case Bin(op=op, left=l, right=r) if op in _ARITHMETIC:
            operands = (_compile(l), _compile(r))
            fn = _ARITHMETIC[op](*operands)
        case Bin(op="/", left=l, right=r):
            operands = (_compile(l), _compile(r))
            fn = _divide(e, *operands)
        case Bin(op="^", left=l, right=r) | Call(name="pow", args=(l, r)):
            operands = (_compile(l), _compile(r))
            fn = _power(e, *operands)
        case Call(name=name, args=(x,)) if name in _UNARY_FUNCTIONS:
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
    value = run(t)
    if not _isfinite(value):
        raise DomainFaultError(e, t, "non-finite result")
    return value


_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


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
        case Bin(op="^", left=l, right=r):
            # Base renders at atom level so (a^b)^c and (-a)^b keep
            # their structure; the exponent may chain right.
            text = _format(l, _PREC_ATOM) + "^" + _format(r, _PREC_POW)
            prec = _PREC_POW
        case Bin(op=op, left=l, right=r):
            prec = _PREC_ADD if op in "+-" else _PREC_MUL
            text = _format(l, prec) + op + _format(r, prec + 1)
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
