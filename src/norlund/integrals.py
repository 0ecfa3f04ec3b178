"""Forward, backward and two-sided symmetric Norlund-sum integrals.

Each integral has two evaluation routes.  Strict follows the defining
difference of infinite series, running one tolerance-controlled sum per
endpoint; it reports NotIntegrable when any of those series fails to
converge, even if a finite evaluation would have been available.
Telescoped uses the exact finite sum alpha * (f(a) + f(a+alpha) + ...)
that exists once the far endpoint lies on the evaluation grid.  Auto
resolves to Telescoped whenever the relevant endpoint is grid-aligned
and to Strict otherwise.

Reversed endpoints are handled by antisymmetry in every mode, and the
empty interval integrates to exactly zero.  A telescoped walk reads at
most cfg.max_terms grid points, the term cap of any sum, and raises
GridBudgetError before it reads the first one of a longer grid.

The plain integrals call f once per point they need.  The checks read
f and g at most once per distinct grid point on the telescoped route:
they hand each integral an on_grid function that builds the integrand's
values from values read once, and the route sums those in place of
calling f.  Strict sides always call f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from .errors import (
    GridBudgetError,
    NonFiniteValueError,
    NotAlignedError,
    NotIntegrableError,
    ZeroStepError,
)
from .operators import (
    GridAlignment,
    GridDirection,
    RealFunction,
    Samples,
    StepPair,
    forward_difference,
    grid_align,
    grid_count,
)
from .series import SeriesConfig, SeriesResult, Verdict, sum_series

__all__ = [
    "IntegralMode",
    "IntegralResult",
    "antiderivative",
    "backward_integral",
    "backward_integral_from_minus_infinity",
    "forward_integral",
    "forward_integral_to_infinity",
    "ftc_residuals",
    "integration_by_parts_residual",
    "symmetric_integral",
    "zero_extension",
]


# on_grid(direction, points): the integrand's values at the points of a
# telescoped side, in order; points is an iterator over them.
GridValues = Callable[[GridDirection, Iterator[float]], Iterable[float]]


class IntegralMode(Enum):
    STRICT = "strict"
    TELESCOPED = "telescoped"
    AUTO = "auto"


@dataclass(frozen=True)
class IntegralResult:
    """Value of one integral plus per-route diagnostics.

    mode_used is always a resolved mode (never Auto).  Strict sides
    carry their pair of series results, ordered (series at a, series at
    b); telescoped sides carry the alignment witness.  For a symmetric
    integral whose two sides resolved differently, mixed_modes is set
    and mode_used records the stricter of the two.
    """

    value: float
    mode_used: IntegralMode
    mixed_modes: bool = False
    forward_diag: Optional[Tuple[SeriesResult, SeriesResult]] = None
    backward_diag: Optional[Tuple[SeriesResult, SeriesResult]] = None
    alignment: Optional[GridAlignment] = None


def _require_positive(step: float, name: str) -> None:
    if step <= 0.0:
        raise ZeroStepError(f"{name} must be positive, got {step!r}")


def forward_integral_to_infinity(
    f: RealFunction, x: float, alpha: float, cfg: SeriesConfig | None = None
) -> SeriesResult:
    """Improper integral from x to +infinity: alpha * sum of f(x + k*alpha)."""
    _require_positive(alpha, "alpha")
    return sum_series(lambda k: alpha * f(x + k * alpha), cfg)


def backward_integral_from_minus_infinity(
    f: RealFunction, x: float, beta: float, cfg: SeriesConfig | None = None
) -> SeriesResult:
    """Improper integral from -infinity to x: beta * sum of f(x - k*beta)."""
    _require_positive(beta, "beta")
    return sum_series(lambda k: beta * f(x - k * beta), cfg)


def _check_converged(s: SeriesResult, x: float, side: str) -> None:
    if s.verdict is not Verdict.CONVERGED:
        raise NotIntegrableError(
            f"{side} series at endpoint {x!r} did not converge: verdict "
            f"{s.verdict.value} after {s.terms_used} terms "
            f"(tail estimate {s.tail_estimate!r})",
            diagnostics=s,
        )


# Per direction: the step's name, the improper integral at one endpoint,
# and the IntegralResult slot for its strict diagnostics.
_SIDES = {
    GridDirection.FORWARD: ("alpha", forward_integral_to_infinity, "forward_diag"),
    GridDirection.BACKWARD: ("beta", backward_integral_from_minus_infinity, "backward_diag"),
}


_DEFAULT_MAX_TERMS = SeriesConfig().max_terms


def _require_budget(
    start: float, end: float, step: float, points: int, cfg: SeriesConfig | None
) -> None:
    """Raise GridBudgetError when a walk would read more than max_terms points."""
    max_terms = _DEFAULT_MAX_TERMS if cfg is None else cfg.max_terms
    if points > max_terms:
        raise GridBudgetError(start, end, step, points, max_terms)


def _grid_total(values: Iterable[float]) -> float:
    """values[0] + values[1] + ..., added left to right.

    Plain float addition, where builtin sum() compensates from Python
    3.12 on, so the telescoped value is the direct finite sum bit for bit.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _side(
    f: RealFunction,
    a: float,
    b: float,
    step: float,
    direction: GridDirection,
    mode: IntegralMode,
    cfg: SeriesConfig | None,
    on_grid: GridValues | None,
) -> IntegralResult:
    """One side of the symmetric integral, walking its grid in direction.

    The forward grid ascends from min(a, b), the backward grid descends
    from max(a, b).  Telescoped sums the values on_grid gives for the
    grid points, or f at each point when on_grid is None or its values
    do not sum to a finite total; strict is the difference of the
    improper integrals of f at the two endpoints, taken towards the
    side's infinity.  A value that is not a finite float raises
    NonFiniteValueError at b.
    """
    step_name, improper, diag_slot = _SIDES[direction]
    side = direction.value
    _require_positive(step, step_name)
    lo, hi = (a, b) if a < b else (b, a)
    forward = direction is GridDirection.FORWARD
    start, end = (lo, hi) if forward else (hi, lo)
    alignment = grid_align(start, end, step, direction)
    if mode is IntegralMode.AUTO:
        mode = IntegralMode.TELESCOPED if alignment else IntegralMode.STRICT

    if mode is IntegralMode.TELESCOPED:
        if alignment is None:
            raise NotAlignedError(
                f"endpoints {a!r} and {b!r} are not aligned on the {side} "
                f"grid with step {step!r}"
            )
        _require_budget(start, end, step, alignment.k1, cfg)
        # start + k*(-step) is start - k*step bit for bit (IEEE negation is
        # exact).  Plain left-to-right accumulation and one trailing multiply
        # keep the result bit-identical to the direct finite sum.
        signed = step if forward else -step
        total = math.nan
        if on_grid is not None:
            points = (start + k * signed for k in range(alignment.k1))
            try:
                total = _grid_total(map(float, on_grid(direction, points)))
            except Exception:
                pass  # the pass below, which calls f, raises the fault
        # A total that is not finite holds a fault or an overflow: calling
        # f point by point raises the fault as f itself first meets it.
        if not math.isfinite(total):
            total = 0.0
            for k in range(alignment.k1):
                point = start + k * signed
                value = float(f(point))
                if not math.isfinite(value):
                    raise NonFiniteValueError(point, value)
                total += value
        value = step * total
        if a > b:
            value = -value
        result = IntegralResult(value, IntegralMode.TELESCOPED, alignment=alignment)
    else:
        s_a = improper(f, a, step, cfg)
        _check_converged(s_a, a, side)
        s_b = improper(f, b, step, cfg)
        _check_converged(s_b, b, side)
        value = s_a.value - s_b.value if forward else s_b.value - s_a.value
        result = IntegralResult(value, IntegralMode.STRICT, **{diag_slot: (s_a, s_b)})
    if not math.isfinite(value):
        raise NonFiniteValueError(
            b, value, f"the {side} integral from {a!r} to {b!r} overflowed ({value!r})"
        )
    return result


def forward_integral(
    f: RealFunction,
    a: float,
    b: float,
    alpha: float,
    mode: IntegralMode = IntegralMode.AUTO,
    cfg: SeriesConfig | None = None,
    *,
    on_grid: GridValues | None = None,
) -> IntegralResult:
    """Forward integral of f from a to b with step alpha.

    Strict value is the difference of the two improper integrals at a
    and b; Telescoped sums the k1 grid values from min(a, b), with the
    sign flipped when a > b.  on_grid(direction, points), when given,
    returns f's values at the telescoped grid points; the route sums them
    in place of calling f, and calls f at each point only when on_grid
    raises or its values do not sum to a finite total, so a fault is
    raised as f itself raises it.
    """
    return _side(f, a, b, alpha, GridDirection.FORWARD, mode, cfg, on_grid)


def backward_integral(
    f: RealFunction,
    a: float,
    b: float,
    beta: float,
    mode: IntegralMode = IntegralMode.AUTO,
    cfg: SeriesConfig | None = None,
    *,
    on_grid: GridValues | None = None,
) -> IntegralResult:
    """Backward integral of f from a to b with step beta.

    Strict value is the difference of the improper integrals up to b and
    up to a; Telescoped sums the k1 grid values walking down from
    max(a, b), with the sign flipped when a > b.  on_grid gives f's
    values on the telescoped route, as in forward_integral.
    """
    return _side(f, a, b, beta, GridDirection.BACKWARD, mode, cfg, on_grid)


def symmetric_integral(
    f: RealFunction,
    a: float,
    b: float,
    steps: StepPair,
    mode: IntegralMode = IntegralMode.AUTO,
    cfg: SeriesConfig | None = None,
    *,
    on_grid: GridValues | None = None,
) -> IntegralResult:
    """Two-sided integral: the convex combination of forward and backward.

    value = alpha/(alpha+beta) * forward + beta/(alpha+beta) * backward.
    A zero step skips its side entirely and returns the other side's
    result unchanged.  In Auto mode the two sides resolve independently;
    mode_used then records the stricter resolution and mixed_modes flags
    a mix.  on_grid gives f's values on telescoped sides, as in
    forward_integral.
    """
    if steps.beta == 0.0:
        return forward_integral(f, a, b, steps.alpha, mode, cfg, on_grid=on_grid)
    if steps.alpha == 0.0:
        return backward_integral(f, a, b, steps.beta, mode, cfg, on_grid=on_grid)

    fwd = forward_integral(f, a, b, steps.alpha, mode, cfg, on_grid=on_grid)
    bwd = backward_integral(f, a, b, steps.beta, mode, cfg, on_grid=on_grid)
    weight = steps.alpha + steps.beta
    value = (steps.alpha / weight) * fwd.value + (steps.beta / weight) * bwd.value
    if fwd.mode_used is IntegralMode.STRICT or bwd.mode_used is IntegralMode.STRICT:
        mode_used = IntegralMode.STRICT
    else:
        mode_used = IntegralMode.TELESCOPED
    alignment = fwd.alignment if fwd.alignment is not None else bwd.alignment
    return IntegralResult(
        value,
        mode_used,
        forward_diag=fwd.forward_diag,
        backward_diag=bwd.backward_diag,
        alignment=alignment,
        mixed_modes=fwd.mode_used is not bwd.mode_used,
    )


def antiderivative(
    f: RealFunction, a: float, alpha: float, cfg: SeriesConfig | None = None
) -> RealFunction:
    """The function x -> forward integral of f from a to x (Auto mode).

    Each call re-evaluates the integral; errors surface at call time.
    """
    _require_positive(alpha, "alpha")

    def accumulated(x: float) -> float:
        return forward_integral(f, a, x, alpha, IntegralMode.AUTO, cfg).value

    return accumulated


def ftc_residuals(
    f: RealFunction,
    a: float,
    b: float,
    alpha: float,
    cfg: SeriesConfig | None = None,
) -> Tuple[float, float]:
    """Residuals of the two fundamental-theorem identities on [a, b].

    r1 is the largest deviation of the forward difference of the
    accumulated integral from f itself over the grid points a + k*alpha
    up to b; r2 is the deviation of the integral of the forward
    difference of f from f(b) - f(a).  f is read at most once per
    distinct point, unless r2 takes the strict route.
    """
    _require_positive(alpha, "alpha")
    if b < a:
        raise ValueError(f"needs b >= a, got a={a!r}, b={b!r}")
    count = grid_count(a, b, alpha) + 1
    _require_budget(a, b, alpha, count, cfg)
    samples = Samples(f)
    points = [a + k * alpha for k in range(count)]

    # The accumulated integral at a + k*alpha is alpha times the running
    # sum of f over the k grid points before it, added left to right as
    # the telescoped route adds them, so each value is bit-identical to
    # antiderivative(f, a, alpha)(a + k*alpha).
    r1 = 0.0
    total = 0.0
    lower = 0.0
    for x, raw in zip(points, samples.column_or_calls(points)):
        value = float(raw)
        if not math.isfinite(value):
            raise NonFiniteValueError(x, value)
        total += value
        upper = alpha * total
        if not math.isfinite(upper):
            raise NonFiniteValueError(
                x + alpha,
                upper,
                f"the accumulated integral from {a!r} to {x + alpha!r} overflowed ({upper!r})",
            )
        deviation = abs((upper - lower) / alpha - value)
        if deviation > r1:
            r1 = deviation
        lower = upper

    def delta(t: float) -> float:
        return forward_difference(f, t, alpha)

    def delta_values(direction: GridDirection, points: Iterator[float]) -> List[float]:
        points = list(points)
        ahead = samples.column([t + alpha for t in points])
        here = samples.column(points)
        return [(float(x1) - float(x0)) / alpha for x1, x0 in zip(ahead, here)]

    integral = forward_integral(delta, a, b, alpha, IntegralMode.AUTO, cfg, on_grid=delta_values)
    r2 = abs(integral.value - (samples.read(b) - samples.read(a)))
    return r1, r2


def integration_by_parts_residual(
    f: RealFunction,
    g: RealFunction,
    a: float,
    b: float,
    alpha: float,
    cfg: SeriesConfig | None = None,
) -> float:
    """|LHS - RHS| of the product-rule identity on [a, b].

    LHS integrates f(t) times the forward difference of g; RHS is the
    boundary term f*g evaluated at b minus at a, less the integral of
    the forward difference of f times g shifted one step ahead.  On the
    telescoped route f and g are read at most once per distinct point;
    t + alpha shares a read with the next grid point when the two floats
    are equal.
    """
    _require_positive(alpha, "alpha")
    f_samples, g_samples = Samples(f), Samples(g)

    def f_dg(t: float) -> float:
        return f(t) * forward_difference(g, t, alpha)

    def df_g_shift(t: float) -> float:
        return forward_difference(f, t, alpha) * g(t + alpha)

    def f_dg_values(direction: GridDirection, points: Iterator[float]) -> List[float]:
        points = list(points)
        xs = f_samples.column(points)
        ahead = g_samples.column([t + alpha for t in points])
        ys = g_samples.column(points)
        return [x * ((float(y1) - float(y0)) / alpha) for x, y1, y0 in zip(xs, ahead, ys)]

    def df_g_shift_values(direction: GridDirection, points: Iterator[float]) -> List[float]:
        points = list(points)
        ahead = [t + alpha for t in points]
        here = zip(f_samples.column(ahead), f_samples.column(points), g_samples.column(ahead))
        return [((float(x1) - float(x0)) / alpha) * y1 for x1, x0, y1 in here]

    lhs = forward_integral(f_dg, a, b, alpha, IntegralMode.AUTO, cfg, on_grid=f_dg_values).value
    boundary = f_samples.read(b) * g_samples.read(b) - f_samples.read(a) * g_samples.read(a)
    shifted = forward_integral(
        df_g_shift, a, b, alpha, IntegralMode.AUTO, cfg, on_grid=df_g_shift_values
    )
    rhs = boundary - shifted.value
    return abs(lhs - rhs)


def zero_extension(
    f: RealFunction, lo: float | None = None, hi: float | None = None
) -> RealFunction:
    """The function equal to f on the closed interval [lo, hi], zero outside.

    Either bound may be None for a half-line.  The extension makes any
    function of bounded support strictly integrable.
    """
    if lo is not None and hi is not None and lo > hi:
        raise ValueError(f"needs lo <= hi, got lo={lo!r}, hi={hi!r}")

    def extended(t: float) -> float:
        if lo is not None and t < lo:
            return 0.0
        if hi is not None and t > hi:
            return 0.0
        return float(f(t))

    return extended
