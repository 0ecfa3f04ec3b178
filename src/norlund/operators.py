"""Pointwise quantum difference operators and step-grid arithmetic.

grid_points is the one walk over a step grid: every grid the integrals
and the checks read comes from it, so the point formula, the term-cap
budget and the resolution rule live in one place.  A step that
must be positive is checked by one rule, _require_positive, for the
difference quotients, the grid arithmetic and the integrals alike: a
step at or below zero is a ZeroStepError, an infinite or NaN one a
ValueError, as is an infinite or NaN endpoint of an integral or a check
(_require_finite).  A value read at a point is checked by one rule too,
_finite: a value that is infinite or NaN is a NonFiniteValueError at its
point.  The three difference quotients are one rule, _quotient: a zero
step reads t itself, so -0.0 stays -0.0, a positive step must move t, and
a difference or a sum of steps that overflows is halved first.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from enum import Enum

from ._record import Record
from .errors import GridBudgetError, NonFiniteValueError, ZeroStepError
from .series import SeriesConfig, _config

__all__ = [
    "EPS_GRID",
    "GridAlignment",
    "GridDirection",
    "RealFunction",
    "StepPair",
    "backward_difference",
    "forward_difference",
    "grid_align",
    "symmetric_difference",
]

# An evaluable mapping from a real point to a real value.
RealFunction = Callable[[float], float]

# Alignment slack, measured in units of the grid step.  Far above the
# rounding noise of repeated step addition, far below any half-step
# ambiguity.
EPS_GRID = 1e-9


class StepPair(Record):
    """The step sizes (alpha, beta) of the two-sided calculus.

    Both steps are nonnegative and at least one is positive.  A zero
    step disables that side entirely: no downstream computation ever
    evaluates the function on a zero-weighted grid.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("steps must be finite")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError(f"steps must be nonnegative, got ({self.alpha!r}, {self.beta!r})")
        if self.alpha + self.beta <= 0.0:
            raise ValueError("at least one of alpha, beta must be positive")


class GridDirection(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


class GridAlignment(Record):
    """Witness that target = anchor +/- k1*step, up to EPS_GRID step units."""

    k1: int
    residual: float


def _finite(t: float, y) -> float:
    """y, the value read at t, as a float; NonFiniteValueError if it is
    infinite or NaN.  The one finiteness rule for a value read at a point."""
    y = float(y)
    if not math.isfinite(y):
        raise NonFiniteValueError(t, y)
    return y


def _require_finite(x: float, name: str) -> None:
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")


def _require_positive(step: float, name: str) -> None:
    if step <= 0.0:
        raise ZeroStepError(f"{name} must be positive, got {step!r}")
    _require_finite(step, name)


def _moved(t: float, shifted: float, step: float, side: str) -> float:
    """shifted, t moved by a positive step; ZeroStepError if it is t."""
    if shifted == t:
        raise ZeroStepError(
            f"{side} step {step!r} does not move t={t!r}: it is below t's resolution"
        )
    return shifted


def _quotient(f: RealFunction, t: float, alpha: float, beta: float) -> float:
    """(f(t + alpha) - f(t - beta)) / (alpha + beta), f read at the upper
    point first.  A zero step reads t itself (t + 0.0 would turn -0.0 into
    0.0); a positive one must move t.  Where the difference or the sum of
    the steps overflows, the quotient is taken from their halves."""
    upper = _moved(t, t + alpha, alpha, "forward") if alpha else t
    lower = _moved(t, t - beta, beta, "backward") if beta else t
    x, y = _finite(upper, f(upper)), _finite(lower, f(lower))
    quotient = (x - y) / (alpha + beta)
    # Steps that sum to at most 1 cannot shrink an overflowing difference.
    if not math.isfinite(quotient) and alpha + beta > 1.0:
        quotient = (x / 2 - y / 2) / (alpha / 2 + beta / 2)
    return quotient


def forward_difference(f: RealFunction, t: float, alpha: float) -> float:
    """Forward difference quotient (f(t + alpha) - f(t)) / alpha.

    The step must be positive and must move t (t + alpha != t).
    """
    _require_positive(alpha, "forward step")
    return _quotient(f, t, alpha, 0.0)


def backward_difference(f: RealFunction, t: float, beta: float) -> float:
    """Backward difference quotient (f(t) - f(t - beta)) / beta.

    The step must be positive and must move t (t - beta != t).
    """
    _require_positive(beta, "backward step")
    return _quotient(f, t, 0.0, beta)


def symmetric_difference(f: RealFunction, t: float, steps: StepPair) -> float:
    """Two-sided quotient (f(t + alpha) - f(t - beta)) / (alpha + beta).

    Reduces to the forward quotient at beta = 0 and to the backward
    quotient at alpha = 0; at alpha = beta = h it is the classical
    symmetric quotient (f(t + h) - f(t - h)) / (2h).  A zero side reads
    t itself; a positive one must move t.
    """
    return _quotient(f, t, steps.alpha, steps.beta)


def grid_align(
    anchor: float,
    target: float,
    step: float,
    direction: GridDirection = GridDirection.FORWARD,
) -> GridAlignment | None:
    """Match target onto the half-infinite grid starting at anchor.

    Returns the step count k1 and the signed residual in step units, or
    None when the target is off-grid (|residual| > EPS_GRID), behind the
    anchor, or more steps away than a float counts.  Non-alignment is an
    ordinary outcome, not an error.
    """
    _require_positive(step, "grid step")
    span = target - anchor if direction is GridDirection.FORWARD else anchor - target
    ratio = span / step
    if not math.isfinite(ratio):
        return None
    k1 = round(ratio)
    residual = ratio - k1
    if k1 < 0 or abs(residual) > EPS_GRID:
        return None
    return GridAlignment(int(k1), residual)


def grid_count(
    anchor: float,
    target: float,
    step: float,
    direction: GridDirection = GridDirection.FORWARD,
) -> int:
    """Number of whole steps from anchor towards target, never below 0.

    The alignment witness's k1 when target lies on the grid, otherwise
    the floor of the span in step units, at most sys.maxsize (an
    infinite span counts as that many steps).
    """
    alignment = grid_align(anchor, target, step, direction)
    if alignment is not None:
        return alignment.k1
    span = target - anchor if direction is GridDirection.FORWARD else anchor - target
    return max(0, math.floor(min(span / step, sys.maxsize)))


def grid_points(
    anchor: float,
    target: float,
    step: float,
    direction: GridDirection,
    count: int,
    cfg: SeriesConfig | None = None,
) -> list[float]:
    """The first count points of the grid from anchor towards target.

    Before making a point it checks step as grid_align does, then raises
    ValueError if cfg is neither a SeriesConfig nor None, GridBudgetError
    if count exceeds cfg.max_terms, then ZeroStepError if
    the endpoints differ and step is below the ulp of the larger in
    magnitude: the points would coincide.
    """
    _require_positive(step, "grid step")
    max_terms = _config(cfg).max_terms
    if count > max_terms:
        raise GridBudgetError(anchor, target, step, count, max_terms)
    if anchor != target and step < math.ulp(max(abs(anchor), abs(target))):
        raise ZeroStepError(
            f"grid step {step!r} from {anchor!r} to {target!r} is below the endpoints' "
            f"resolution: its points would coincide"
        )
    # anchor + k*(-step) is anchor - k*step bit for bit (IEEE negation is exact).
    signed = step if direction is GridDirection.FORWARD else -step
    return [anchor + k * signed for k in range(count)]
