"""Forward, backward and two-sided symmetric Norlund-sum integrals.

Each integral has two evaluation routes.  Strict follows the defining
difference of infinite series: it reads each endpoint's series until it
converges or settles, and reports NotIntegrable when either does not,
even if a finite evaluation would have been available.  Its value is
the two sums' difference where both reached tol, else the grid's finite
sum where the far endpoint is on the grid, else the sum to tol of one
series, the endpoint terms' difference.  Telescoped uses the exact
finite sum alpha * (f(a) + f(a+alpha) + ...) that exists once the far
endpoint lies on the evaluation grid.  Auto resolves to Telescoped
whenever the relevant endpoint is grid-aligned and to Strict otherwise.

Reversed endpoints are handled by antisymmetry in every mode, and the
empty interval integrates to exactly zero.  Every telescoped grid comes
from operators.grid_points, which raises GridBudgetError for a walk of
more than cfg.max_terms points, the term cap of any sum, and
ZeroStepError for a step below the endpoints' resolution, before any
point is read.

Every telescoped side adds its integrand's values at its grid points
through an on_grid function: given the side's walk, a function that
returns the list of points, it returns the side's total, added left to
right.  f may offer a column form: f.column(points) is [f(t) for t in
points], or raises if f faults at any of them (expr.evaluate_column).
One rule, _reader, reads f a block at a time: its column form, or else f
at each point, so a read that raises yields nothing.  A plain integral's
on_grid walks the grid once and reads f through it.  The seven verifiers
(five checks, ftc and ibp) write each integrand once, as a row that
_Integrals compiles, and walk each side once.  Each telescoped side reads
its own grid once, one column call per block, and sums the block as it
reads it, keeping no value past it; its shifted points (t + h) are a
column of their own, and a check's sampled grids and boundary values are
separate reads, through _column_or_calls.  Only when on_grid raises or
its total is not finite does the side walk its grid again and call the
integrand point by point, up to the first fault, so the fault is raised
as f itself raises it; a plain integral whose f faults thus calls f
again up to the fault.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from enum import Enum
from functools import cache, partial, reduce
from itertools import chain
from operator import add

from ._record import Record
from .errors import NonFiniteTermError, NonFiniteValueError, NotAlignedError, NotIntegrableError
from .operators import (
    GridAlignment,
    GridDirection,
    RealFunction,
    StepPair,
    _finite,
    _require_finite,
    _require_positive,
    forward_difference,
    grid_align,
    grid_count,
    grid_points,
)
from .series import SeriesConfig, SeriesResult, Verdict, _config, sum_series

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


# on_grid(direction, walk): the sum of the integrand's values at the points
# of a telescoped side, added left to right; walk() returns the list of them.
GridWalk = Callable[[], list[float]]
GridTotal = Callable[[GridDirection, GridWalk], float]


class IntegralMode(Enum):
    STRICT = "strict"
    TELESCOPED = "telescoped"
    AUTO = "auto"


def _require_mode(mode: IntegralMode) -> None:
    if not isinstance(mode, IntegralMode):
        raise ValueError(f"mode must be an IntegralMode, got {mode!r}")


_BLOCK = 1024  # points per call of a column form, so its transient lists stay small


def _blocks(points: Sequence[float]) -> Iterable[Sequence[float]]:
    return (points[i:i + _BLOCK] for i in range(0, len(points), _BLOCK))


def _reader(f: RealFunction) -> Callable[[Sequence[float]], list]:
    """f's column form, or else f called at each point, as a list."""
    return getattr(f, "column", None) or (lambda points: list(map(f, points)))


def _column_or_calls(f: RealFunction, points: Sequence[float]) -> Iterable[Iterable]:
    """f's raw values at points, read lazily a block of _BLOCK at a time:
    per block, _reader(f)'s list, or where that raises, a lazy map of f
    over the block.  A caller that checks each value as it iterates then
    meets the first fault in point order, as a loop calling f would."""
    read = _reader(f)
    for block in _blocks(points):
        try:
            values = read(block)
        except Exception:  # the caller meets the fault as it calls f up to it
            values = map(f, block)
        yield values


# A row's reads of f and g at its point t, by name, in the order the row
# first names them: x and y are f(t) and g(t), x1 and y1 f and g at t + h,
# and dx and dy their forward difference quotients with step h.
_READS = {
    "x": "f(t)", "y": "g(t)", "x1": "f(t + h)", "y1": "g(t + h)",
    "dx": "forward_difference(f, t, h)", "dy": "forward_difference(g, t, h)",
}


def _reads(row: str) -> list[str]:
    """The names of _READS that row reads, in the order it first names them."""
    words = "".join(c if c.isalnum() else " " for c in row).split()
    return [n for n in dict.fromkeys(words) if n in _READS]


def _compiled(lines: list[str]):
    """The function the source lines define, its globals this module's."""
    namespace = {}
    exec("\n".join(lines), globals(), namespace)
    return namespace.popitem()[1]


@cache
def _loop(rows: tuple[str, ...], constants: tuple[str, ...]):
    """The columns a check's fused loop reads, and the loop, which adds
    float(row) into row i's total from 0.0, left to right, over blocks, each
    a tuple of those columns' values at one block of points; its quotients
    are unchecked, so a fault shows in a total."""
    named = {n for row in rows for n in _reads(row)}
    quotients = [q for q in ("dx", "dy") if q in named]
    # The columns the loop reads: unshifted before shifted, f before g.
    columns = tuple(c for c in ("x", "y", "x1", "y1") if c in named or f"d{c[0]}" in quotients)
    sums = [f"s{i}" for i in range(len(rows))]
    return columns, _compiled([
        f"def loop(blocks, {', '.join(constants)}):",
        f"    {' = '.join(sums)} = 0.0",
        "    for block in blocks:",
        f"        for {', '.join(columns)}, in zip(*block):",
        *(f"            {q} = (float({q[1]}1) - float({q[1]})) / h" for q in quotients),
        *(f"            {s} += float({row})" for s, row in zip(sums, rows)),
        f"    return {', '.join(sums)},",
    ])


@cache
def _pointwise(row: str, constants: tuple[str, ...]):
    """A function of f, g and the constants giving row's pointwise function,
    whose reads call f and g afresh; in a power row an OverflowError, in
    the reads too, is a NonFiniteValueError(t, inf)."""
    body = [f"{n} = {_READS[n]}" for n in _reads(row)] + [f"return {row}"]
    if "**" in row:
        body = ["try:", *("    " + line for line in body), "except OverflowError:",
                "    raise NonFiniteValueError(t, math.inf) from None"]
    return _compiled([f"def pointwise(f, g, {', '.join(constants)}):", "    def at(t):",
                      *("        " + line for line in body), "    return at"])


class _Integrals:
    """Integrals on one [a, b] of a check's rows, each a Python expression
    over the values _READS names and the constants, passed by name (h is
    the step of a shift), which reach the compiled code only as arguments.
    Calling it with i integrates row i by integrate(integrand, a, b, steps,
    mode, cfg).  A telescoped side's fused loop, run on its first integral,
    gives every row's total, all NaN where the loop raises, so each row's
    fault pass runs; strict terms and fault passes call the pointwise code.
    """

    def __init__(self, integrate, f, g, a, b, steps, mode, cfg, rows, **constants):
        _require_mode(mode)  # before a hypothesis check reads f or g
        self.integrate = integrate
        self.f, self.g = f, g
        self.args = (a, b, steps, mode, cfg)
        self.rows, self.constants = rows, constants
        self.points = {}  # by row: its pointwise function, once compiled
        self.walks, self.totals = {}, {}  # by direction: a sampled side's points, each row's total

    def sampled(self, steps: StepPair) -> list[list[float]]:
        """The grid points in [a, b] a check samples, one list per side
        with a positive step: grid_count + 1 points forward from a and
        backward from b, both walked before any read.  Less its far
        endpoint, each is its side's walk; a strict side reads none."""
        a, b, *_, cfg = self.args
        walks = zip((a, b), (b, a), (steps.alpha, steps.beta), GridDirection)  # forward, backward
        grids = {direction: grid_points(anchor, target, step, direction,
                                        grid_count(anchor, target, step, direction) + 1, cfg)
                 for anchor, target, step, direction in walks if step > 0.0}
        for direction, points in grids.items():
            self.walks[direction] = points[:-1]
        return list(grids.values())

    def side(self, direction: GridDirection, walk: GridWalk) -> tuple[float, ...]:
        """Each row's total on direction's side, by the fused loop run on
        first use over its sampled points, or else its walk: each column is
        read a block at a time, at the block or, shifted, at its points
        plus h, and none outlives its block.  Where the loop raises, every
        total is NaN, so each row's fault pass runs."""
        if direction not in self.totals:
            points = self.walks.pop(direction) if direction in self.walks else walk()
            names, loop = _loop(self.rows, tuple(self.constants))
            h = self.constants.get("h")
            # Unshifted, the walk's own blocks: t + 0.0 would turn -0.0 into 0.0.
            columns = [map(_reader(self.f if c[0] == "x" else self.g),
                           ([t + h for t in block] for block in _blocks(points)) if c[1:]
                           else _blocks(points)) for c in names]
            try:
                self.totals[direction] = loop(zip(*columns), **self.constants)
            except Exception:
                self.totals[direction] = (math.nan,) * len(self.rows)
        return self.totals[direction]

    def at(self, i: int, t: float):
        """Row i's raw value at t, its pointwise function compiled on first use."""
        if i not in self.points:
            pointwise = _pointwise(self.rows[i], tuple(self.constants))
            self.points[i] = pointwise(self.f, self.g, **self.constants)
        return self.points[i](t)

    def __call__(self, i: int) -> IntegralResult:
        on_grid = lambda direction, walk: self.side(direction, walk)[i]  # noqa: E731
        return self.integrate(partial(self.at, i), *self.args, on_grid=on_grid)


class IntegralResult(Record):
    """Value of one integral plus per-route diagnostics.

    mode_used is always a resolved mode (never Auto).  Strict sides
    carry their pair of endpoint series results, ordered (series at a,
    series at b), each converged or settled; telescoped sides carry the
    alignment witness.  For a symmetric integral whose two sides resolved
    differently, mixed_modes is set and mode_used records the stricter.
    """

    value: float
    mode_used: IntegralMode
    mixed_modes: bool = False
    forward_diag: tuple[SeriesResult, SeriesResult] | None = None
    backward_diag: tuple[SeriesResult, SeriesResult] | None = None
    alignment: GridAlignment | None = None


def _improper(
    f: RealFunction, x: float, step: float, direction: GridDirection, cfg: SeriesConfig | None,
    *, minus: float | None = None, settle: bool = False,
) -> SeriesResult:
    """step * sum of f(x + k*step) forwards, f(x - k*step) backwards, less
    f at the same steps from minus where given; settle lets it settle.

    A term that is not finite raises NonFiniteValueError at its point, a
    difference's at a point where f is not finite if there is one.
    """
    # x + k*(-step) is x - k*step bit for bit (IEEE negation is exact).
    signed = step if direction is GridDirection.FORWARD else -step
    term = lambda k: step * f(x + k * signed)  # noqa: E731
    if minus is not None:
        read = lambda t: _finite(t, f(t))  # noqa: E731
        term = lambda k: step * (read(x + k * signed) - read(minus + k * signed))  # noqa: E731
    try:
        return sum_series(term, cfg, _settle=settle)
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


def _check_converged(s: SeriesResult, series: str) -> None:
    if s.verdict is not Verdict.CONVERGED and s.verdict is not Verdict.SETTLED:
        raise NotIntegrableError(
            f"{series} did not converge: verdict {s.verdict.value} after "
            f"{s.terms_used} terms (tail estimate {s.tail_estimate!r})",
            diagnostics=s,
        )


def _grid_total(values: Iterable[float]) -> float:
    """values[0] + values[1] + ..., added left to right.

    Plain float addition, where builtin sum() compensates from Python
    3.12 on, so the telescoped value is the direct finite sum bit for bit.
    """
    return reduce(add, values, 0.0)


def _telescoped(f: RealFunction, walk: GridWalk, step: float, direction: GridDirection,
                on_grid: GridTotal | None) -> float:
    """step, signed as the interval runs, times on_grid's total of the
    values at walk's points; by default f's column form's, else f's."""
    if on_grid is None:  # a plain integral: f's column form, else f at each point
        read = _reader(f)
        on_grid = lambda _, walk: _grid_total(  # noqa: E731
            map(float, chain.from_iterable(map(read, _blocks(walk())))))
    # Plain left-to-right accumulation and one trailing multiply keep
    # the result bit-identical to the direct finite sum.
    try:
        total = on_grid(direction, walk)
    except Exception:
        total = math.nan  # the pass below, which calls f, raises the fault
    # A total that is not finite holds a fault or an overflow: calling
    # f point by point raises the fault as f itself first meets it, and
    # a walk the budget or the resolution rule refuses raises first.
    if not math.isfinite(total):
        total = _grid_total(_finite(t, f(t)) for t in walk())
    return step * total


def _side(
    f: RealFunction,
    a: float,
    b: float,
    step: float,
    direction: GridDirection,
    mode: IntegralMode,
    cfg: SeriesConfig | None,
    on_grid: GridTotal | None,
) -> IntegralResult:
    """One side of the symmetric integral, walking its grid in direction.

    The forward grid ascends from min(a, b), the backward grid descends
    from max(a, b).  Telescoped takes on_grid's total of the grid values,
    falling back on f as forward_integral says.  Strict is the difference
    of the improper integrals of f at the two endpoints, taken towards
    the side's infinity, as the module docstring says.  A value that is
    not a finite float raises NonFiniteValueError at b.
    """
    forward = direction is GridDirection.FORWARD
    # The step's name, and the IntegralResult slot for the strict diagnostics.
    step_name, diag_slot = ("alpha", "forward_diag") if forward else ("beta", "backward_diag")
    side = direction.value
    _require_mode(mode)
    _require_positive(step, step_name)
    _require_finite(a, "a")
    _require_finite(b, "b")
    lo, hi = (a, b) if a < b else (b, a)
    start, end = (lo, hi) if forward else (hi, lo)
    alignment = grid_align(start, end, step, direction)
    walk = alignment and partial(grid_points, start, end, step, direction, alignment.k1, cfg)
    if mode is IntegralMode.AUTO:
        mode = IntegralMode.TELESCOPED if alignment else IntegralMode.STRICT

    if mode is IntegralMode.TELESCOPED:
        if alignment is None:
            raise NotAlignedError(
                f"endpoints {a!r} and {b!r} are not aligned on the {side} "
                f"grid with step {step!r}"
            )
        value = _telescoped(f, walk, math.copysign(step, b - a), direction, on_grid)
        result = IntegralResult(value, IntegralMode.TELESCOPED, alignment=alignment)
    else:
        s_a = _improper(f, a, step, direction, cfg, settle=True)
        _check_converged(s_a, f"{side} series at endpoint {a!r}")
        s_b = _improper(f, b, step, direction, cfg, settle=True)
        _check_converged(s_b, f"{side} series at endpoint {b!r}")
        # Both series converge, so unless both reached tol, the side is the
        # sum of their difference: the grid's finite sum where it telescopes,
        # else a series whose terms decay a power faster than theirs.
        if s_a.verdict is s_b.verdict is Verdict.CONVERGED:
            value = s_a.value - s_b.value if forward else s_b.value - s_a.value
        elif alignment and alignment.k1 <= _config(cfg).max_terms:
            value = _telescoped(f, walk, math.copysign(step, b - a), direction, None)
        else:
            x, minus = (a, b) if forward else (b, a)
            d = _improper(f, x, step, direction, cfg, minus=minus)
            _check_converged(d, f"{side} difference series from {a!r} to {b!r}")
            value = d.value
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
    on_grid: GridTotal | None = None,
) -> IntegralResult:
    """Forward integral of f from a to b with step alpha.

    Strict value is the difference of the two improper integrals at a
    and b; Telescoped sums the k1 grid values from min(a, b), with the
    sign flipped when a > b.  on_grid(direction, walk) gives the total of
    f's values at the points walk() returns, by default read through f's
    column form, else f at each point.  If it raises or is not finite, f
    is called (again) point by point up to the first fault, raised as f
    raises it.
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
    on_grid: GridTotal | None = None,
) -> IntegralResult:
    """Backward integral of f from a to b with step beta.

    Strict value is the difference of the improper integrals up to b and
    up to a; Telescoped sums the k1 grid values walking down from
    max(a, b), with the sign flipped when a > b.  on_grid gives the
    telescoped total, as in forward_integral.
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
    on_grid: GridTotal | None = None,
) -> IntegralResult:
    """Two-sided integral: the convex combination of forward and backward.

    value = alpha/(alpha+beta) * forward + beta/(alpha+beta) * backward,
    the weights taken from the halved steps where alpha + beta overflows.
    A zero step skips its side entirely and returns the other side's
    result unchanged.  In Auto mode the two sides resolve independently;
    mode_used then records the stricter resolution and mixed_modes flags
    a mix.  on_grid gives telescoped totals, as in forward_integral.
    """
    if steps.beta == 0.0:
        return forward_integral(f, a, b, steps.alpha, mode, cfg, on_grid=on_grid)
    if steps.alpha == 0.0:
        return backward_integral(f, a, b, steps.beta, mode, cfg, on_grid=on_grid)

    fwd = forward_integral(f, a, b, steps.alpha, mode, cfg, on_grid=on_grid)
    bwd = backward_integral(f, a, b, steps.beta, mode, cfg, on_grid=on_grid)
    alpha, beta = steps.alpha, steps.beta
    if math.isinf(alpha + beta):  # halved, as operators._quotient halves an overflowing sum
        alpha, beta = alpha / 2, beta / 2
    weight = alpha + beta
    value = (alpha / weight) * fwd.value + (beta / weight) * bwd.value
    strict = IntegralMode.STRICT in (fwd.mode_used, bwd.mode_used)
    mode_used = IntegralMode.STRICT if strict else IntegralMode.TELESCOPED
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
    except a bad alpha, a non-finite a or a cfg that is not a
    SeriesConfig, which are refused here.
    """
    _require_positive(alpha, "alpha")
    _require_finite(a, "a")
    _config(cfg)

    def accumulated(x: float) -> float:
        return forward_integral(f, a, x, alpha, IntegralMode.AUTO, cfg).value

    return accumulated


def ftc_residuals(
    f: RealFunction,
    a: float,
    b: float,
    alpha: float,
    cfg: SeriesConfig | None = None,
) -> tuple[float, float]:
    """Residuals of the two fundamental-theorem identities on [a, b].

    r1 is the largest deviation of the forward difference of the
    accumulated integral from f itself over the grid points a + k*alpha
    up to b; r2 is the deviation of the integral of the forward
    difference of f from f(b) - f(a).  f is read on the sampled grid for
    r1, at that grid less b and, shifted, at its points plus alpha for a
    telescoped r2, and at b and a; where f raises, it is called again up
    to the fault.
    """
    _require_positive(alpha, "alpha")
    _require_finite(a, "a")
    _require_finite(b, "b")
    if b < a:
        raise ValueError(f"needs b >= a, got a={a!r}, b={b!r}")
    integral = _Integrals(forward_integral, f, None, a, b, alpha, IntegralMode.AUTO, cfg,
                          ("dx",), h=alpha)
    [points] = integral.sampled(StepPair(alpha, 0.0))

    # The accumulated integral at a + k*alpha is alpha times the running
    # sum of f over the k grid points before it, added left to right as
    # the telescoped route adds them, so each value is bit-identical to
    # antiderivative(f, a, alpha)(a + k*alpha).  f is read a block at a
    # time, and the loop raises the first fault in point order.
    r1 = total = lower = 0.0
    for x, value in zip(points, chain.from_iterable(_column_or_calls(f, points))):
        value = _finite(x, value)
        total += value
        upper = alpha * total
        if not math.isfinite(upper):
            message = f"the accumulated integral from {a!r} to {x + alpha!r} overflowed ({upper!r})"
            raise NonFiniteValueError(x + alpha, upper, message)
        deviation = abs((upper - lower) / alpha - value)
        if deviation > r1:
            r1 = deviation
        lower = upper

    r2 = integral(0).value
    fb, fa = chain.from_iterable(_column_or_calls(f, (b, a)))
    return r1, abs(r2 - (fb - fa))


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
    telescoped route the two integrals share one read of the side: f and
    g at the grid's points and, shifted, at the points plus alpha; then f
    and g are read at b and a.  A value of f or g at a or b that is not
    finite, or a boundary term that overflows, raises NonFiniteValueError.
    """
    _require_positive(alpha, "alpha")
    integral = _Integrals(forward_integral, f, g, a, b, alpha, IntegralMode.AUTO, cfg,
                          ("x*dy", "dx*y1"), h=alpha)
    lhs = integral(0).value
    fb, fa = map(_finite, (b, a), chain.from_iterable(_column_or_calls(f, (b, a))))
    gb, ga = map(_finite, (b, a), chain.from_iterable(_column_or_calls(g, (b, a))))
    boundary = fb * gb - fa * ga
    if not math.isfinite(boundary):
        term = f"the boundary term f(b)*g(b) - f(a)*g(a) from {a!r} to {b!r}"
        raise NonFiniteValueError(b, boundary, f"{term} overflowed ({boundary!r})")
    return abs(lhs - (boundary - integral(1).value))


def zero_extension(
    f: RealFunction, lo: float | None = None, hi: float | None = None
) -> RealFunction:
    """The function equal to f on the closed interval [lo, hi], zero outside.

    Either bound may be None, or an infinity, for a half-line; a NaN
    bound is a ValueError.  A strict series sums past exact zeros before
    the support, so the extension makes a function of bounded support
    strictly integrable unless a strict series meets 34 or more grid
    points before the support: its first 34 terms are then exactly zero
    (a 33-term window of zeros, then one more), and it is read as all zero.
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
