"""Numerical checkers for the symmetric-integral inequalities.

Covers the Holder, Cauchy-Schwarz and Minkowski inequalities, the
pointwise comparison theorem, and the mean value constant.  Each check
evaluates both sides with symmetric integrals and reports the margin;
a check "holds" when the margin is no worse than rounding slack scaled
to the magnitudes involved.  Pointwise hypotheses (nonnegative weight,
|f| <= g) are verified by sampling the evaluation grids of both sides
over [a, b], which are exactly the points the integrals read.
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
from .integrals import IntegralMode, IntegralResult, symmetric_integral
from .operators import GridDirection, RealFunction, StepPair, grid_count
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
    if not a < b:
        raise ValueError(f"needs a < b, got a={a!r}, b={b!r}")


def sampled_grid_points(a: float, b: float, steps: StepPair) -> List[float]:
    """The grid points in [a, b] read by the two sides of the integral.

    Forward points ascend from a, backward points descend from b; both
    endpoint counts come from the alignment witness when it exists.
    """
    points: List[float] = []
    if steps.alpha > 0.0:
        n = grid_count(a, b, steps.alpha, GridDirection.FORWARD)
        points.extend(a + k * steps.alpha for k in range(n + 1))
    if steps.beta > 0.0:
        n = grid_count(b, a, steps.beta, GridDirection.BACKWARD)
        points.extend(b - k * steps.beta for k in range(n + 1))
    return points


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
    product = symmetric_integral(lambda t: abs(f(t) * g(t)), a, b, steps, mode, cfg)
    f_power = symmetric_integral(_abs_power(f, p), a, b, steps, mode, cfg)
    g_power = symmetric_integral(_abs_power(g, q), a, b, steps, mode, cfg)
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
    total = symmetric_integral(_abs_power(lambda t: f(t) + g(t), p), a, b, steps, mode, cfg)
    f_power = symmetric_integral(_abs_power(f, p), a, b, steps, mode, cfg)
    g_power = symmetric_integral(_abs_power(g, p), a, b, steps, mode, cfg)
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
    for t in sampled_grid_points(a, b, steps):
        f_value = float(f(t))
        g_value = float(g(t))
        if abs(f_value) > g_value:
            raise HypothesisFailedError(t, f_value, g_value)
    f_integral = symmetric_integral(f, a, b, steps, mode, cfg)
    g_integral = symmetric_integral(g, a, b, steps, mode, cfg)
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
    points = sampled_grid_points(a, b, steps)
    for t in points:
        g_value = float(g(t))
        if g_value < -_viol_tol(g_value, 0.0):
            raise NegativeWeightError(t, g_value)

    weighted = symmetric_integral(lambda t: f(t) * g(t), a, b, steps, mode, cfg)
    weight = symmetric_integral(g, a, b, steps, mode, cfg)
    f_values = [float(f(t)) for t in points]
    m = min(f_values)
    M = max(f_values)
    if abs(weight.value) <= _viol_tol(weighted.value, weight.value):
        return MvtReport(0.0, m, M, True)
    return MvtReport(weighted.value / weight.value, m, M, False)
