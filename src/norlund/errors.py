"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "BadExponentError",
    "DomainFaultError",
    "ExprSyntaxError",
    "GridBudgetError",
    "HypothesisFailedError",
    "NegativeWeightError",
    "NonFiniteTermError",
    "NonFiniteValueError",
    "NorlundError",
    "NotAlignedError",
    "NotIntegrableError",
    "UnknownIdentifierError",
    "ZeroStepError",
]


class NorlundError(Exception):
    """Base class for every error raised by this package."""


class NonFiniteTermError(NorlundError):
    """A series term evaluated to NaN or +/-inf."""

    def __init__(self, index: int, value: float):
        super().__init__(f"series term {index} is non-finite ({value!r})")
        self.index = index
        self.value = value


class ZeroStepError(NorlundError):
    """A step that must be positive was zero or negative."""


class NonFiniteValueError(NorlundError):
    """A function value, or a sum of finite ones, was NaN or +/-inf.

    point is where the value arose: the point f was read at, or the end
    of the integral or running sum that overflowed.
    """

    def __init__(self, point: float, value: float, message: str | None = None):
        super().__init__(message or f"function value at t={point!r} is non-finite ({value!r})")
        self.point = point
        self.value = value


class GridBudgetError(NorlundError):
    """A grid walk would read more points than the term cap max_terms."""

    def __init__(self, start: float, end: float, step: float, points: int, max_terms: int):
        super().__init__(
            f"the grid from {start!r} to {end!r} with step {step!r} has {points:.7g} "
            f"points, more than the term cap max_terms={max_terms}"
        )
        self.points = points
        self.max_terms = max_terms


class NotIntegrableError(NorlundError):
    """A strict-mode series failed to converge, so the integral does not exist."""

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class NotAlignedError(NorlundError):
    """Telescoped evaluation was requested for endpoints that are not grid-aligned."""


class BadExponentError(NorlundError):
    """A Holder-type exponent must satisfy 1 < p < inf."""

    def __init__(self, p: float):
        super().__init__(f"exponent p must be finite and greater than 1, got {p!r}")
        self.p = p


class HypothesisFailedError(NorlundError):
    """A pointwise hypothesis failed at a sampled grid point."""

    def __init__(self, point: float, f_value: float, g_value: float):
        super().__init__(
            f"hypothesis |f| <= g fails at t={point!r}: |f|={abs(f_value)!r}, g={g_value!r}"
        )
        self.point = point
        self.f_value = f_value
        self.g_value = g_value


class NegativeWeightError(NorlundError):
    """The weight function of the mean value check was negative at a grid point."""

    def __init__(self, point: float, value: float):
        super().__init__(f"weight function is negative at t={point!r}: {value!r}")
        self.point = point
        self.value = value


class ExprSyntaxError(NorlundError):
    """Expression text failed to parse."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str, hint: str = ""):
        message = (
            f"syntax error at offset {offset}: expected {' or '.join(expected)}, "
            f"found {found!r}"
        )
        if hint:
            message += f" ({hint})"
        super().__init__(message)
        self.offset = offset
        self.expected = expected
        self.found = found


class UnknownIdentifierError(NorlundError):
    """An identifier in an expression is not a known variable, constant or function."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r} at offset {offset}")
        self.name = name
        self.offset = offset


class DomainFaultError(NorlundError):
    """Expression evaluation hit a real-domain fault instead of propagating NaN."""

    def __init__(self, node, t: float, reason: str):
        super().__init__(f"domain fault at t={t!r}: {reason}")
        self.node = node
        self.t = t
        self.reason = reason
