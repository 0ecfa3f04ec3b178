"""Numerical checkers for the symmetric-integral inequalities.

Covers the Holder, Cauchy-Schwarz and Minkowski inequalities, the
pointwise comparison theorem, and the mean value constant.  Each check
evaluates both sides with symmetric integrals and reports the margin;
a check "holds" when the margin is no worse than rounding slack scaled
to the magnitudes involved.  Pointwise hypotheses (nonnegative weight,
|f| <= g) are verified by sampling the evaluation grids of both sides
over [a, b] (integrals._Integrals.sampled): the grids the telescoped
sides then read, each walked once.  A strict side also reads series
points outside [a, b], which the samples miss (ROADMAP item 5).  Each
check writes its integrands once, as rows over f's and g's values at a
point, such as abs(x*y) and abs(x)**p; integrals._Integrals compiles
them into one fused loop per telescoped side, which reads f and g a
block at a time and sums each block as it reads it, and a pointwise
function per row.  The samples and each side are separate reads.
"""

from __future__ import annotations

import math
import sys
from itertools import chain

from ._record import Record
from .errors import BadExponentError, HypothesisFailedError, NegativeWeightError
from .integrals import (IntegralMode, IntegralResult, _blocks, _column_or_calls, _Integrals,
                        symmetric_integral)
from .operators import RealFunction, StepPair, _require_finite
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


class InequalityReport(Record):
    """Both sides of one inequality instance and the verdict."""

    lhs: float
    rhs: float
    margin: float  # rhs - lhs
    holds: bool
    context: dict


class MvtReport(Record):
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


def _weights_pass(values) -> bool:
    """Whether every value in values, a list, passes mvt's weight test,
    found by one C-level min and max: a number from -1e-9 to the largest
    float converts to a float g that is not below -_viol_tol(g, 0.0),
    which is -1e-9 * max(1, |g|).  A NaN that min and max pass over
    passes the test too."""
    try:
        return type(values) is list and min(values) >= -1e-9 and max(values) <= sys.float_info.max
    except (TypeError, ValueError):  # values that do not compare: the per-point loop decides
        return False


def _report(lhs: float, rhs: float, context: dict) -> InequalityReport:
    margin = rhs - lhs
    return InequalityReport(lhs, rhs, margin, margin >= -_viol_tol(lhs, rhs), context)


def _context(a, b, steps: StepPair, result: IntegralResult, **extra) -> dict:
    return {"a": a, "b": b, "alpha": steps.alpha, "beta": steps.beta, **extra,
            "mode_used": result.mode_used.value, "mixed_modes": result.mixed_modes}


def _nonneg(x: float) -> float:
    # Strict-mode differences can leave -1e-20 dust on a mathematically
    # nonnegative integral; clamp before fractional powers.
    return x if x > 0.0 else 0.0


def _require_interval(a: float, b: float) -> None:
    _require_finite(a, "a")
    _require_finite(b, "b")
    if not a < b:
        raise ValueError(f"needs a < b, got a={a!r}, b={b!r}")


def _require_exponent(p: float) -> None:
    # An infinite p would make q = p/(p - 1) NaN and |f|^p overflow.
    if not 1.0 < p < math.inf:
        raise BadExponentError(p)


def _holder_pieces(f, g, a, b, steps, p, mode, cfg):
    _require_exponent(p)
    _require_interval(a, b)
    q = p / (p - 1.0)
    integral = _Integrals(symmetric_integral, f, g, a, b, steps, mode, cfg,
                          ("abs(x*y)", "abs(x)**p", "abs(y)**q"), p=p, q=q)
    return (q, *map(integral, range(3)))


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
    """The p = q = 2 case, the right side sqrt(xy), or sqrt(x)sqrt(y) if xy overflows."""
    q, product, f_power, g_power = _holder_pieces(f, g, a, b, steps, 2.0, mode, cfg)
    lhs = product.value
    x, y = _nonneg(f_power.value), _nonneg(g_power.value)
    rhs = math.sqrt(x * y) if math.isfinite(x * y) else math.sqrt(x) * math.sqrt(y)
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
    integral = _Integrals(symmetric_integral, f, g, a, b, steps, mode, cfg,
                          ("abs(x+y)**p", "abs(x)**p", "abs(y)**p"), p=p)
    total, f_power, g_power = map(integral, range(3))
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
    integral = _Integrals(symmetric_integral, f, g, a, b, steps, mode, cfg, ("x", "y"))
    for points in integral.sampled(steps):
        xs, ys = (chain.from_iterable(_column_or_calls(h, points)) for h in (f, g))
        for t, x, y in zip(points, xs, ys):
            f_value, g_value = float(x), float(y)
            if abs(f_value) > g_value:
                raise HypothesisFailedError(t, f_value, g_value)
    f_integral, g_integral = map(integral, range(2))
    return _report(abs(f_integral.value), g_integral.value, _context(a, b, steps, g_integral))


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
    integral = _Integrals(symmetric_integral, f, g, a, b, steps, mode, cfg, ("x*y", "y"))
    grids = integral.sampled(steps)
    for points in grids:
        for block, values in zip(_blocks(points), _column_or_calls(g, points)):
            if not _weights_pass(values):
                for t, y in zip(block, values):
                    g_value = float(y)
                    if g_value < -_viol_tol(g_value, 0.0):
                        raise NegativeWeightError(t, g_value)

    weighted, weight = map(integral, range(2))
    f_values = [float(x) for points in grids
                for x in chain.from_iterable(_column_or_calls(f, points))]
    m, M = min(f_values), max(f_values)
    if abs(weight.value) <= _viol_tol(weighted.value, weight.value):
        return MvtReport(0.0, m, M, True)
    return MvtReport(weighted.value / weight.value, m, M, False)
