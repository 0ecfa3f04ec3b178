"""Numerical checkers for the symmetric-integral inequalities.

Covers the Holder, Cauchy-Schwarz and Minkowski inequalities, the
pointwise comparison theorem, and the mean value constant.  Each check
evaluates both sides with symmetric integrals and reports the margin;
a check "holds" when the margin is no worse than rounding slack scaled
to the magnitudes involved.  Pointwise hypotheses (nonnegative weight,
|f| <= g) are verified by sampling the evaluation grids of both sides
over [a, b], which are exactly the points the integrals read.  A check
reads f and g at most once per distinct grid point on the telescoped
route, whatever number of integrals it builds from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from .errors import (
    BadExponentError,
    HypothesisFailedError,
    NegativeWeightError,
    NonFiniteValueError,
)
from .integrals import IntegralMode, IntegralResult, _require_mode, symmetric_integral
from .operators import (
    GridDirection,
    RealFunction,
    Samples,
    StepPair,
    _require_finite,
    grid_count,
    grid_points,
)
from .series import SeriesConfig

__all__ = [
    "InequalityReport",
    "MvtReport",
    "cauchy_schwarz_check",
    "comparison_check",
    "holder_check",
    "minkowski_check",
    "mvt_constant",
]


def _viol_tol(lhs: float, rhs: float) -> float:
    # The inequalities are exact in real arithmetic, so the tolerated
    # violation is rounding slack only, scaled to the operand magnitudes.
    return 1e-9 * max(1.0, abs(lhs), abs(rhs))


@dataclass(frozen=True)
class InequalityReport:
    """Both sides of one inequality instance and the verdict."""

    lhs: float
    rhs: float
    margin: float  # rhs - lhs
    holds: bool
    context: dict


@dataclass(frozen=True)
class MvtReport:
    """Mean value constant K and the sampled extrema bracketing it."""

    K: float
    m: float
    M: float
    degenerate: bool  # integral of the weight vanished; K = 0 by convention

    @property
    def holds(self) -> bool:
        """K lies in [m, M] up to rounding slack, or the report is degenerate."""
        slack = _viol_tol(self.m, self.M)
        return self.degenerate or self.m - slack <= self.K <= self.M + slack


def _report(lhs: float, rhs: float, context: dict) -> InequalityReport:
    margin = rhs - lhs
    return InequalityReport(lhs, rhs, margin, margin >= -_viol_tol(lhs, rhs), context)


def _context(a, b, steps: StepPair, result: IntegralResult, **extra) -> dict:
    ctx = {"a": a, "b": b, "alpha": steps.alpha, "beta": steps.beta}
    ctx.update(extra)
    ctx["mode_used"] = result.mode_used.value
    ctx["mixed_modes"] = result.mixed_modes
    return ctx


def _nonneg(x: float) -> float:
    # Strict-mode differences can leave -1e-20 dust on a mathematically
    # nonnegative integral; clamp before fractional powers.
    return x if x > 0.0 else 0.0


def _require_interval(a: float, b: float) -> None:
    _require_finite(a, "a")
    _require_finite(b, "b")
    if not a < b:
        raise ValueError(f"needs a < b, got a={a!r}, b={b!r}")


def sampled_grid_points(
    a: float, b: float, steps: StepPair, cfg: SeriesConfig | None = None
) -> List[float]:
    """The grid points in [a, b] read by the two sides of the integral.

    Forward points ascend from a, backward points descend from b; both
    endpoint counts come from the alignment witness when it exists.
    Either walk longer than cfg.max_terms points raises GridBudgetError,
    and either walk with a step below its endpoints' resolution raises
    ZeroStepError.
    """
    points: List[float] = []
    walks = ((a, b, steps.alpha, GridDirection.FORWARD), (b, a, steps.beta, GridDirection.BACKWARD))
    for anchor, target, step, direction in walks:
        if step > 0.0:
            count = grid_count(anchor, target, step, direction) + 1
            points += grid_points(anchor, target, step, direction, count, cfg)
    return points


class _Integrals:
    """Symmetric integrals on one [a, b] of integrands built from f and g.

    Calling it with an integrand and its values form integrates the
    integrand.  On a telescoped side, the first integral to reach a
    direction walks its grid and reads f and g once per distinct grid
    point into columns that every integral of the check shares, and
    values(xs, ys) turns a side's columns into the integrand's values by
    the integrand's own arithmetic on the raw reads.  A side whose reads
    or values fault is summed by calling the integrand instead.
    """

    def __init__(self, f, g, a, b, steps, mode, cfg):
        _require_mode(mode)  # before a hypothesis check reads f or g
        self.f, self.g = Samples(f), Samples(g)
        self.args = (a, b, steps, mode, cfg)
        self.columns = {}  # per grid direction: (xs, ys)

    def __call__(self, integrand, values) -> IntegralResult:
        def on_grid(direction, walk):
            if direction not in self.columns:
                points = walk()
                self.columns[direction] = (self.f.column(points), self.g.column(points))
            return values(*self.columns[direction])

        return symmetric_integral(integrand, *self.args, on_grid=on_grid)


def _require_exponent(p: float) -> None:
    # An infinite p would make q = p/(p - 1) NaN and |f|^p overflow.
    if not 1.0 < p < math.inf:
        raise BadExponentError(p)


def _abs_power(f: RealFunction, p: float) -> RealFunction:
    """t -> |f(t)|^p, raising NonFiniteValueError at a t where it overflows."""

    def power(t: float) -> float:
        try:
            return abs(f(t)) ** p
        except OverflowError:
            raise NonFiniteValueError(t, math.inf) from None

    return power


def _holder_pieces(f, g, a, b, steps, p, mode, cfg):
    _require_exponent(p)
    _require_interval(a, b)
    q = p / (p - 1.0)
    integral = _Integrals(f, g, a, b, steps, mode, cfg)
    product = integral(
        lambda t: abs(f(t) * g(t)), lambda xs, ys: [abs(x * y) for x, y in zip(xs, ys)]
    )
    f_power = integral(_abs_power(f, p), lambda xs, ys: [abs(x) ** p for x in xs])
    g_power = integral(_abs_power(g, q), lambda xs, ys: [abs(y) ** q for y in ys])
    return q, product, f_power, g_power


def holder_check(
    f: RealFunction,
    g: RealFunction,
    a: float,
    b: float,
    steps: StepPair,
    p: float,
    mode: IntegralMode = IntegralMode.AUTO,
    cfg: SeriesConfig | None = None,
) -> InequalityReport:
    """Check int|fg| <= (int|f|^p)^(1/p) * (int|g|^q)^(1/q), q = p/(p-1)."""
    q, product, f_power, g_power = _holder_pieces(f, g, a, b, steps, p, mode, cfg)
    lhs = product.value
    rhs = _nonneg(f_power.value) ** (1.0 / p) * _nonneg(g_power.value) ** (1.0 / q)
    return _report(lhs, rhs, _context(a, b, steps, product, p=p, q=q))


def cauchy_schwarz_check(
    f: RealFunction,
    g: RealFunction,
    a: float,
    b: float,
    steps: StepPair,
    mode: IntegralMode = IntegralMode.AUTO,
    cfg: SeriesConfig | None = None,
) -> InequalityReport:
    """The p = q = 2 case, with the right side in square-root form."""
    q, product, f_power, g_power = _holder_pieces(f, g, a, b, steps, 2.0, mode, cfg)
    lhs = product.value
    rhs = math.sqrt(_nonneg(f_power.value) * _nonneg(g_power.value))
    return _report(lhs, rhs, _context(a, b, steps, product, p=2.0, q=q))


def minkowski_check(
    f: RealFunction,
    g: RealFunction,
    a: float,
    b: float,
    steps: StepPair,
    p: float,
    mode: IntegralMode = IntegralMode.AUTO,
    cfg: SeriesConfig | None = None,
) -> InequalityReport:
    """Check (int|f+g|^p)^(1/p) <= (int|f|^p)^(1/p) + (int|g|^p)^(1/p)."""
    _require_exponent(p)
    _require_interval(a, b)
    integral = _Integrals(f, g, a, b, steps, mode, cfg)
    total = integral(
        _abs_power(lambda t: f(t) + g(t), p),
        lambda xs, ys: [abs(x + y) ** p for x, y in zip(xs, ys)],
    )
    f_power = integral(_abs_power(f, p), lambda xs, ys: [abs(x) ** p for x in xs])
    g_power = integral(_abs_power(g, p), lambda xs, ys: [abs(y) ** p for y in ys])
    lhs = _nonneg(total.value) ** (1.0 / p)
    rhs = _nonneg(f_power.value) ** (1.0 / p) + _nonneg(g_power.value) ** (1.0 / p)
    return _report(lhs, rhs, _context(a, b, steps, total, p=p))


def comparison_check(
    f: RealFunction,
    g: RealFunction,
    a: float,
    b: float,
    steps: StepPair,
    mode: IntegralMode = IntegralMode.AUTO,
    cfg: SeriesConfig | None = None,
) -> InequalityReport:
    """Check |int f| <= int g given |f| <= g on the sampled grid points.

    A sampled point violating the hypothesis raises HypothesisFailedError
    carrying the witness point.
    """
    _require_interval(a, b)
    integral = _Integrals(f, g, a, b, steps, mode, cfg)
    points = sampled_grid_points(a, b, steps, cfg)
    xs, ys = integral.f.column_or_calls(points), integral.g.column_or_calls(points)
    for t, x, y in zip(points, xs, ys):
        f_value = float(x)
        g_value = float(y)
        if abs(f_value) > g_value:
            raise HypothesisFailedError(t, f_value, g_value)
    f_integral = integral(f, lambda xs, ys: xs)
    g_integral = integral(g, lambda xs, ys: ys)
    lhs = abs(f_integral.value)
    rhs = g_integral.value
    return _report(lhs, rhs, _context(a, b, steps, g_integral))


def mvt_constant(
    f: RealFunction,
    g: RealFunction,
    a: float,
    b: float,
    steps: StepPair,
    mode: IntegralMode = IntegralMode.AUTO,
    cfg: SeriesConfig | None = None,
) -> MvtReport:
    """The constant K with int(fg) = K * int(g) for a nonnegative weight g.

    m and M are the extrema of f over the sampled grid points, the
    computable stand-ins for the infimum and supremum.  When int(g)
    vanishes (within rounding slack) the report is degenerate and K = 0
    by convention.
    """
    _require_interval(a, b)
    integral = _Integrals(f, g, a, b, steps, mode, cfg)
    points = sampled_grid_points(a, b, steps, cfg)
    for t, y in zip(points, integral.g.column_or_calls(points)):
        g_value = float(y)
        if g_value < -_viol_tol(g_value, 0.0):
            raise NegativeWeightError(t, g_value)

    weighted = integral(
        lambda t: f(t) * g(t), lambda xs, ys: [x * y for x, y in zip(xs, ys)]
    )
    weight = integral(g, lambda xs, ys: ys)
    f_values = [float(x) for x in integral.f.column_or_calls(points)]
    m = min(f_values)
    M = max(f_values)
    if abs(weight.value) <= _viol_tol(weighted.value, weight.value):
        return MvtReport(0.0, m, M, True)
    return MvtReport(weighted.value / weight.value, m, M, False)
