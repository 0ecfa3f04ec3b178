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
empty interval integrates to exactly zero.  Every telescoped grid comes
from operators.grid_points, which raises GridBudgetError for a walk of
more than cfg.max_terms points, the term cap of any sum, and
ZeroStepError for a step below the endpoints' resolution, before any
point is read.

Every telescoped side sums the values an on_grid function gives for its
grid points.  on_grid receives the side's walk, a function that returns
the list of points, so a caller that already holds a direction's values
need not walk its grid again.  A plain integral's on_grid walks the grid
once and calls f at each point, once.  The checks read f and g at most
once per distinct grid point: they hand each integral an on_grid
function that builds the integrand's values from values read once, and
walk each direction's grid once.  Only when on_grid raises or its values
do not sum to a finite total does the side walk its grid again and call
f point by point, up to the first fault, so the fault is raised as f
itself raises it; a plain integral whose f faults thus calls f again up
to the fault.  Strict sides always call f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Iterable, List, Optional, Tuple

from .errors import NonFiniteTermError, NonFiniteValueError, NotAlignedError, NotIntegrableError
from .operators import (
    GridAlignment,
    GridDirection,
    RealFunction,
    Samples,
    StepPair,
    _finite,
    _require_finite,
    _require_positive,
    forward_difference,
    grid_align,
    grid_count,
    grid_points,
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


# on_grid(direction, walk): the integrand's values at the points of a
# telescoped side, in order; walk() returns the list of them.
GridWalk = Callable[[], List[float]]
GridValues = Callable[[GridDirection, GridWalk], Iterable[float]]


class IntegralMode(Enum):
    STRICT = "strict"
    TELESCOPED = "telescoped"
    AUTO = "auto"


def _require_mode(mode: IntegralMode) -> None:
    if not isinstance(mode, IntegralMode):
        raise ValueError(f"mode must be an IntegralMode, got {mode!r}")


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


def _improper(
    f: RealFunction, x: float, step: float, direction: GridDirection, cfg: SeriesConfig | None
) -> SeriesResult:
    """step * sum of f(x + k*step) forwards, f(x - k*step) backwards.

    A term that is not finite raises NonFiniteValueError at its point.
    """
    # x + k*(-step) is x - k*step bit for bit (IEEE negation is exact).
    signed = step if direction is GridDirection.FORWARD else -step
    try:
        return sum_series(lambda k: step * f(x + k * signed), cfg)
    except NonFiniteTermError as exc:
        t = x + exc.index * signed
        message = f"the {direction.value} series term at t={t!r} is non-finite ({exc.value!r})"
        raise NonFiniteValueError(t, exc.value, message) from None


def _finite_improper(
    f: RealFunction, x: float, step: float, direction: GridDirection, cfg: SeriesConfig | None
) -> SeriesResult:
    """_improper's result; NonFiniteValueError at x if its value is not finite."""
    _require_finite(x, "x")
    s = _improper(f, x, step, direction, cfg)
    if not math.isfinite(s.value):
        ends = f"{x!r} to infinity" if direction is GridDirection.FORWARD else f"-infinity to {x!r}"
        raise NonFiniteValueError(
            x, s.value, f"the {direction.value} integral from {ends} overflowed ({s.value!r})"
        )
    return s


def forward_integral_to_infinity(
    f: RealFunction, x: float, alpha: float, cfg: SeriesConfig | None = None
) -> SeriesResult:
    """Improper integral from x to +infinity: alpha * sum of f(x + k*alpha).

    A value that overflows to inf or NaN raises NonFiniteValueError at x.
    """
    _require_positive(alpha, "alpha")
    return _finite_improper(f, x, alpha, GridDirection.FORWARD, cfg)


def backward_integral_from_minus_infinity(
    f: RealFunction, x: float, beta: float, cfg: SeriesConfig | None = None
) -> SeriesResult:
    """Improper integral from -infinity to x: beta * sum of f(x - k*beta).

    A value that overflows to inf or NaN raises NonFiniteValueError at x.
    """
    _require_positive(beta, "beta")
    return _finite_improper(f, x, beta, GridDirection.BACKWARD, cfg)


def _check_converged(s: SeriesResult, x: float, side: str) -> None:
    if s.verdict is not Verdict.CONVERGED:
        raise NotIntegrableError(
            f"{side} series at endpoint {x!r} did not converge: verdict "
            f"{s.verdict.value} after {s.terms_used} terms "
            f"(tail estimate {s.tail_estimate!r})",
            diagnostics=s,
        )


# Per direction: the step's name and the IntegralResult slot for its
# strict diagnostics.
_SIDES = {
    GridDirection.FORWARD: ("alpha", "forward_diag"),
    GridDirection.BACKWARD: ("beta", "backward_diag"),
}


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
    from max(a, b).  Telescoped sums on_grid's values at the grid points,
    falling back on f as forward_integral says.  Strict is the difference
    of the improper integrals of f at the two endpoints, taken towards
    the side's infinity.  A value that is not a finite float raises
    NonFiniteValueError at b.
    """
    step_name, diag_slot = _SIDES[direction]
    side = direction.value
    _require_mode(mode)
    _require_positive(step, step_name)
    _require_finite(a, "a")
    _require_finite(b, "b")
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
        walk = partial(grid_points, start, end, step, direction, alignment.k1, cfg)
        if on_grid is None:  # a plain integral: f at each point
            on_grid = lambda direction, walk: map(f, walk())  # noqa: E731
        # Plain left-to-right accumulation and one trailing multiply keep
        # the result bit-identical to the direct finite sum.
        try:
            total = _grid_total(map(float, on_grid(direction, walk)))
        except Exception:
            total = math.nan  # the pass below, which calls f, raises the fault
        # A total that is not finite holds a fault or an overflow: calling
        # f point by point raises the fault as f itself first meets it, and
        # a walk the budget or the resolution rule refuses raises first.
        if not math.isfinite(total):
            total = _grid_total(_finite(t, f(t)) for t in walk())
        value = step * total
        if a > b:
            value = -value
        result = IntegralResult(value, IntegralMode.TELESCOPED, alignment=alignment)
    else:
        s_a = _improper(f, a, step, direction, cfg)
        _check_converged(s_a, a, side)
        s_b = _improper(f, b, step, direction, cfg)
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
    sign flipped when a > b.  on_grid(direction, walk) gives f's values
    at the telescoped grid points, the list walk() returns, by default f
    at each point.  If they raise or do not sum to a finite total, f is
    called (again) point by point up to the first fault, which it raises
    as f does.
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

    Each call re-evaluates the integral; errors surface at call time,
    except a bad alpha or a non-finite a, which are refused here.
    """
    _require_positive(alpha, "alpha")
    _require_finite(a, "a")

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
    distinct point, unless r2 takes the strict route or f raises, when
    f is called again up to the fault.
    """
    _require_positive(alpha, "alpha")
    _require_finite(a, "a")
    _require_finite(b, "b")
    if b < a:
        raise ValueError(f"needs b >= a, got a={a!r}, b={b!r}")
    points = grid_points(a, b, alpha, GridDirection.FORWARD, grid_count(a, b, alpha) + 1, cfg)
    samples = Samples(f)

    # The accumulated integral at a + k*alpha is alpha times the running
    # sum of f over the k grid points before it, added left to right as
    # the telescoped route adds them, so each value is bit-identical to
    # antiderivative(f, a, alpha)(a + k*alpha).  f is read as one column,
    # and the loop raises the first fault in point order.
    r1 = 0.0
    total = 0.0
    lower = 0.0
    for x, value in zip(points, samples.column_or_calls(points)):
        value = _finite(x, value)
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

    def delta_values(direction: GridDirection, walk: GridWalk) -> List[float]:
        points = walk()
        ahead = samples.column([t + alpha for t in points])
        here = samples.column(points)
        return [(float(x1) - float(x0)) / alpha for x1, x0 in zip(ahead, here)]

    integral = forward_integral(delta, a, b, alpha, IntegralMode.AUTO, cfg, on_grid=delta_values)
    fb, fa = samples.column((b, a))
    r2 = abs(integral.value - (fb - fa))
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

    def f_dg_values(direction: GridDirection, walk: GridWalk) -> List[float]:
        points = walk()
        xs = f_samples.column(points)
        ahead = g_samples.column([t + alpha for t in points])
        ys = g_samples.column(points)
        return [x * ((float(y1) - float(y0)) / alpha) for x, y1, y0 in zip(xs, ahead, ys)]

    def df_g_shift_values(direction: GridDirection, walk: GridWalk) -> List[float]:
        points = walk()
        ahead = [t + alpha for t in points]
        here = zip(f_samples.column(ahead), f_samples.column(points), g_samples.column(ahead))
        return [((float(x1) - float(x0)) / alpha) * y1 for x1, x0, y1 in here]

    lhs = forward_integral(f_dg, a, b, alpha, IntegralMode.AUTO, cfg, on_grid=f_dg_values).value
    (fb, fa), (gb, ga) = f_samples.column((b, a)), g_samples.column((b, a))
    boundary = fb * gb - fa * ga
    shifted = forward_integral(
        df_g_shift, a, b, alpha, IntegralMode.AUTO, cfg, on_grid=df_g_shift_values
    )
    rhs = boundary - shifted.value
    return abs(lhs - rhs)


def zero_extension(
    f: RealFunction, lo: float | None = None, hi: float | None = None
) -> RealFunction:
    """The function equal to f on the closed interval [lo, hi], zero outside.

    Either bound may be None, or an infinity, for a half-line; a NaN
    bound is a ValueError.  The extension makes any function of bounded
    support strictly integrable.
    """
    for name, bound in (("lo", lo), ("hi", hi)):
        if bound is not None and math.isnan(bound):
            raise ValueError(f"{name} must not be NaN, got {bound!r}")
    if lo is not None and hi is not None and lo > hi:
        raise ValueError(f"needs lo <= hi, got lo={lo!r}, hi={hi!r}")

    def extended(t: float) -> float:
        if lo is not None and t < lo:
            return 0.0
        if hi is not None and t > hi:
            return 0.0
        return float(f(t))

    return extended
