"""Values-first checks: call counts, the grid budget, overflow messages, a
seeded differential run against a per-integral reference, and the reads
and memory of functions that offer a column form.

The reference below is written from scratch: every integral of a check
calls f and g at each grid point it needs, in the order the checks have
always read them.  The library reads f and g at most once per point of a
run on the telescoped route, and reads any other block afresh, so it must
give the same bits and the same first fault: exception type, point and
message.
"""

from __future__ import annotations

import collections
import gc
import itertools
import json
import math
import operator
import random
import tracemalloc
from fractions import Fraction

import pytest

from norlund import (
    DomainFaultError,
    GridBudgetError,
    GridDirection,
    HypothesisFailedError,
    IntegralMode,
    NegativeWeightError,
    NonFiniteValueError,
    SeriesConfig,
    StepPair,
    backward_integral,
    cauchy_schwarz_check,
    comparison_check,
    forward_integral,
    ftc_residuals,
    holder_check,
    integration_by_parts_residual,
    minkowski_check,
    mvt_constant,
    symmetric_integral,
)
from norlund import cli, integrals, operators

# ----------------------------------------------------------------------
# Per-integral reference
# ----------------------------------------------------------------------


def ref_side(h, a, b, step, forward):
    """Telescoped side on aligned a < b, calling h at each grid point."""
    start, signed = (a, step) if forward else (b, -step)
    total = 0.0
    for k in range(round((b - a) / step)):
        t = start + k * signed
        value = float(h(t))
        if not math.isfinite(value):
            raise NonFiniteValueError(t, value)
        total += value
    value = step * total
    if not math.isfinite(value):
        side = "forward" if forward else "backward"
        raise NonFiniteValueError(
            b, value, f"the {side} integral from {a!r} to {b!r} overflowed ({value!r})"
        )
    return value


def ref_integral(h, a, b, alpha, beta):
    if beta == 0.0:
        return ref_side(h, a, b, alpha, True)
    if alpha == 0.0:
        return ref_side(h, a, b, beta, False)
    fwd = ref_side(h, a, b, alpha, True)
    bwd = ref_side(h, a, b, beta, False)
    weight = alpha + beta
    return (alpha / weight) * fwd + (beta / weight) * bwd


def ref_count(span, step):
    """Whole steps in span: the nearest count on the grid, else the floor."""
    ratio = span / step
    return round(ratio) if abs(ratio - round(ratio)) <= 1e-9 else math.floor(ratio)


def ref_points(a, b, alpha, beta):
    points = []
    if alpha > 0.0:
        points += [a + k * alpha for k in range(ref_count(b - a, alpha) + 1)]
    if beta > 0.0:
        points += [b - k * beta for k in range(ref_count(b - a, beta) + 1)]
    return points


def ref_power(f, p):
    def h(t):
        try:
            return abs(f(t)) ** p
        except OverflowError:
            raise NonFiniteValueError(t, math.inf) from None

    return h


def ref_finite(f, t):
    value = float(f(t))
    if not math.isfinite(value):
        raise NonFiniteValueError(t, value)
    return value


def ref_difference(f, t, alpha):
    return (ref_finite(f, t + alpha) - ref_finite(f, t)) / alpha


def tol(lhs, rhs):
    return 1e-9 * max(1.0, abs(lhs), abs(rhs))


def nonneg(x):
    return x if x > 0.0 else 0.0


def verdict(lhs, rhs):
    return lhs, rhs, rhs - lhs, rhs - lhs >= -tol(lhs, rhs)


def ref_holder(f, g, a, b, alpha, beta, p, integral=ref_integral):
    q = p / (p - 1.0)
    lhs = integral(lambda t: abs(f(t) * g(t)), a, b, alpha, beta)
    f_power = integral(ref_power(f, p), a, b, alpha, beta)
    g_power = integral(ref_power(g, q), a, b, alpha, beta)
    return verdict(lhs, nonneg(f_power) ** (1.0 / p) * nonneg(g_power) ** (1.0 / q))


def ref_cs(f, g, a, b, alpha, beta, integral=ref_integral):
    lhs = integral(lambda t: abs(f(t) * g(t)), a, b, alpha, beta)
    f_power = integral(ref_power(f, 2.0), a, b, alpha, beta)
    g_power = integral(ref_power(g, 2.0), a, b, alpha, beta)
    return verdict(lhs, math.sqrt(nonneg(f_power) * nonneg(g_power)))


def ref_minkowski(f, g, a, b, alpha, beta, p, integral=ref_integral):
    total = integral(ref_power(lambda t: f(t) + g(t), p), a, b, alpha, beta)
    f_power = integral(ref_power(f, p), a, b, alpha, beta)
    g_power = integral(ref_power(g, p), a, b, alpha, beta)
    lhs = nonneg(total) ** (1.0 / p)
    return verdict(lhs, nonneg(f_power) ** (1.0 / p) + nonneg(g_power) ** (1.0 / p))


def ref_comparison(f, g, a, b, alpha, beta, integral=ref_integral):
    for t in ref_points(a, b, alpha, beta):
        f_value, g_value = float(f(t)), float(g(t))
        if abs(f_value) > g_value:
            raise HypothesisFailedError(t, f_value, g_value)
    lhs = abs(integral(f, a, b, alpha, beta))
    return verdict(lhs, integral(g, a, b, alpha, beta))


def ref_mvt(f, g, a, b, alpha, beta, integral=ref_integral):
    points = ref_points(a, b, alpha, beta)
    for t in points:
        g_value = float(g(t))
        if g_value < -tol(g_value, 0.0):
            raise NegativeWeightError(t, g_value)
    weighted = integral(lambda t: f(t) * g(t), a, b, alpha, beta)
    weight = integral(g, a, b, alpha, beta)
    f_values = [float(f(t)) for t in points]
    if abs(weight) <= tol(weighted, weight):
        return 0.0, min(f_values), max(f_values), True
    return weighted / weight, min(f_values), max(f_values), False


def ref_forward(h, a, b, alpha):
    return ref_side(h, a, b, alpha, True)


def ref_ibp(f, g, a, b, alpha, forward=ref_forward):
    lhs = forward(lambda t: f(t) * ref_difference(g, t, alpha), a, b, alpha)
    fb, fa, gb, ga = (ref_finite(h, t) for h, t in ((f, b), (f, a), (g, b), (g, a)))
    boundary = fb * gb - fa * ga
    if not math.isfinite(boundary):
        term = f"the boundary term f(b)*g(b) - f(a)*g(a) from {a!r} to {b!r}"
        raise NonFiniteValueError(b, boundary, f"{term} overflowed ({boundary!r})")
    shifted = forward(lambda t: ref_difference(f, t, alpha) * g(t + alpha), a, b, alpha)
    return abs(lhs - (boundary - shifted))


def ref_ftc(f, a, b, alpha, forward=ref_forward):
    r1 = total = lower = 0.0
    for k in range(ref_count(b - a, alpha) + 1):
        x = a + k * alpha
        value = ref_finite(f, x)
        total += value
        upper = alpha * total
        if not math.isfinite(upper):
            raise NonFiniteValueError(
                x + alpha,
                upper,
                f"the accumulated integral from {a!r} to {x + alpha!r} overflowed ({upper!r})",
            )
        r1 = max(r1, abs((upper - lower) / alpha - value))
        lower = upper
    integral = forward(lambda t: ref_difference(f, t, alpha), a, b, alpha)
    return r1, abs(integral - (f(b) - f(a)))


def library_cases(f, g, a, b, alpha, beta, p, cfg=None):
    """Each entry point beside its reference.  With a cfg, the reference
    takes any strict side from the library's own integral of a plain
    callable, whose strict route the values-first change leaves alone."""
    steps = StepPair(alpha, beta)
    integral, forward = ref_integral, ref_forward
    if cfg is not None:
        integral = lambda h, a, b, alpha, beta: symmetric_integral(  # noqa: E731
            h, a, b, StepPair(alpha, beta), cfg=cfg).value
        forward = lambda h, a, b, alpha: forward_integral(h, a, b, alpha, cfg=cfg).value  # noqa: E731
    report = lambda r: (r.lhs, r.rhs, r.margin, r.holds)  # noqa: E731
    mvt = lambda r: (r.K, r.m, r.M, r.degenerate)  # noqa: E731
    return {
        "holder": (lambda: report(holder_check(f, g, a, b, steps, p, cfg=cfg)),
                   lambda: ref_holder(f, g, a, b, alpha, beta, p, integral)),
        "cs": (lambda: report(cauchy_schwarz_check(f, g, a, b, steps, cfg=cfg)),
               lambda: ref_cs(f, g, a, b, alpha, beta, integral)),
        "minkowski": (lambda: report(minkowski_check(f, g, a, b, steps, p, cfg=cfg)),
                      lambda: ref_minkowski(f, g, a, b, alpha, beta, p, integral)),
        "comparison": (lambda: report(comparison_check(f, g, a, b, steps, cfg=cfg)),
                       lambda: ref_comparison(f, g, a, b, alpha, beta, integral)),
        "mvt": (lambda: mvt(mvt_constant(f, g, a, b, steps, cfg=cfg)),
                lambda: ref_mvt(f, g, a, b, alpha, beta, integral)),
        "integral": (lambda: symmetric_integral(f, a, b, steps, cfg=cfg).value,
                     lambda: integral(f, a, b, alpha, beta)),
        "ibp": (lambda: integration_by_parts_residual(f, g, a, b, alpha, cfg),
                lambda: ref_ibp(f, g, a, b, alpha, forward)),
        "ftc": (lambda: ftc_residuals(f, a, b, alpha, cfg),
                lambda: ref_ftc(f, a, b, alpha, forward)),
    }


# ----------------------------------------------------------------------
# Seeded cases
# ----------------------------------------------------------------------

BASES = (
    lambda t: 1.5 + math.sin(t),
    lambda t: math.exp(-t / 3.0) - 0.25,
    lambda t: t * t - 0.5,
    lambda t: math.copysign(1.0, t) + t,  # tells -0.0 from 0.0
    lambda t: int(math.floor(2.0 * t)) + 3,  # returns ints
    lambda t: 7,
)


def bits(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return value


def outcome(run):
    try:
        return ("ok", bits(run()))
    except Exception as exc:  # the first fault is part of the outcome
        point = getattr(exc, "point", getattr(exc, "t", None))
        return ("raise", type(exc).__name__, str(exc), bits(point))


def faulty(base, faults):
    """base, except at the points (by float.hex) that faults names."""

    def f(t):
        kind = faults.get(t.hex() if isinstance(t, float) else t)
        if kind == "raise":
            raise DomainFaultError(None, t, "injected fault")
        if kind == "zerodiv":
            return 1 / 0
        if kind is not None:
            return kind
        return base(t)

    return f


FAULT_VALUES = ("raise", "zerodiv", math.inf, -math.inf, math.nan, 1e200, -1e200, 10**400, -1.0)


def draw_case(rng):
    alpha = rng.choice((0.5, 1.0, 0.1, 0.25, 0.3, 0.7))
    n = rng.choice((6, 12, 18, 24))
    beta = rng.choice((0.0, alpha, 2.0 * alpha, alpha / 2.0, alpha / 3.0, 3.0 * alpha))
    shape = rng.randrange(4)
    if shape == 0:
        a = round(rng.uniform(-3.0, 3.0), 3)
    elif shape == 1:
        a = -(n // 2) * alpha  # 0.0 on the grid
    elif shape == 2:
        a = -0.0
    else:
        a = -n * alpha  # b is -0.0 or a float next to it
    b = a + n * alpha
    if shape == 3 and b == 0.0:
        b = -0.0
    return a, b, alpha, beta


def draw_functions(rng, a, b, alpha, beta):
    forward = ref_points(a, b, alpha, 0.0)
    candidates = ref_points(a, b, alpha, beta or alpha) + [t + alpha for t in forward]
    pair = []
    for _ in range(2):
        faults = {}
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            faults[rng.choice(candidates).hex()] = rng.choice(FAULT_VALUES)
        pair.append(faulty(rng.choice(BASES), faults))
    if rng.random() < 0.3:  # a g that dominates f, so comparisons pass
        f = pair[0]
        pair[1] = lambda t: abs(float(f(t))) + 1.0
    return pair


def test_values_first_matches_per_integral_reference():
    rng = random.Random(20120)
    compared, faults = 0, 0
    for _ in range(140):
        a, b, alpha, beta = draw_case(rng)
        f, g = draw_functions(rng, a, b, alpha, beta)
        p = rng.choice((1.5, 2.0, 3.0, 7.0))
        for name, (library, reference) in library_cases(f, g, a, b, alpha, beta, p).items():
            got, want = outcome(library), outcome(reference)
            assert got == want, (name, a, b, alpha, beta, p)
            compared += 1
            faults += want[0] == "raise"
    assert compared >= 1000
    assert 100 <= faults <= compared - 300  # both outcomes are well represented


EXACT = (  # values that float() rounds only after a row combines them
    lambda t: Fraction(t).limit_denominator(7) + Fraction(1, 3),
    lambda t: int(math.floor(3.0 * t)) - 1,
    lambda t: Fraction(2, 3) * int(4.0 * t) - 5,
    lambda t: 2**60 + int(t),  # a product above 2**53 rounds once, as float(row)
    lambda t: 1.5 + math.sin(t),
)


def test_fused_rows_match_the_reference_on_ints_fractions_and_overflowing_powers():
    # A fused loop adds float(row) of the raw values, where the reference
    # rounds each integrand's value, and a power that overflows, which
    # raises in the loop, must still fault at the reference's point.
    rng = random.Random(2026)
    compared, overflows = 0, 0
    for _ in range(80):
        a, b, alpha, beta = draw_case(rng)
        f, g = draw_functions(rng, a, b, alpha, beta)
        if rng.random() < 0.8:
            f, g = (faulty(rng.choice(EXACT), {}) for _ in range(2))
        p = rng.choice((1.5, 3.0, 40.0, 700.0))
        for name, (library, reference) in library_cases(f, g, a, b, alpha, beta, p).items():
            got, want = outcome(library), outcome(reference)
            assert got == want, (name, a, b, alpha, beta, p)
            compared += 1
            overflows += want[:2] == ("raise", "NonFiniteValueError") and "(inf)" in want[2]
    assert compared >= 600
    assert overflows >= 40


@pytest.mark.parametrize("kind", ["holder", "cs", "minkowski"])
def test_a_power_that_overflows_on_one_side_faults_there_after_the_other_side(kind):
    # f is large only at the half-integers, which only the backward grid
    # holds, so 3e200**2 and 3**700 overflow on the backward side alone.
    big, p = (3e200, 2.0) if kind == "cs" else (3, 700.0)
    f = lambda t: big if t % 1.0 else Fraction(1, 2)  # noqa: E731
    g = lambda t: 1.25  # noqa: E731
    library, reference = library_cases(f, g, 0.0, 6.0, 1.0, 0.5, p)[kind]
    got, want = outcome(library), outcome(reference)
    assert got == want
    assert want[:2] == ("raise", "NonFiniteValueError") and want[3] == (5.5).hex()


def test_a_row_that_faults_alone_leaves_the_other_rows_their_totals():
    # On [0, 600] with steps (1, 0.5), 3**700 overflows in the backward
    # side's abs(x)**p row only.  That row's fault pass calls f up to
    # t=599.5; the product and g rows keep the totals the columns gave.
    # The forward grid is the run (600 points) and the backward walk is no
    # slice of it, so its 1,200 points are read afresh: 1,800 reads of each
    # of f and g, and f twice more in the fault pass (3,002 and 3,000 calls
    # when every row of the side ran a fault pass).
    f, f_calls = counted(lambda t: 3.0 if t % 1.0 else 0.5)
    g, g_calls = counted(lambda t: 1.25)
    with pytest.raises(NonFiniteValueError) as err:
        holder_check(f, g, 0.0, 600.0, StepPair(1.0, 0.5), 700.0)
    assert err.value.point == 599.5
    assert str(err.value) == "function value at t=599.5 is non-finite (inf)"
    assert (f_calls[0], g_calls[0]) == (1802, 1800)


DECAYING = (
    lambda t: math.exp(-t * t),
    lambda t: 0.5 * math.exp(-(t - 1.0) ** 2) + 1e-3 * math.exp(-t * t),
    lambda t: math.exp(-t * t) * math.cos(3.0 * t),
    lambda t: 1.0 / (1.0 + t**4),
)


def test_values_first_matches_reference_on_strict_and_mixed_routes():
    rng = random.Random(20121)
    cfg = SeriesConfig(tol=1e-6, max_terms=500)
    compared, faults = 0, 0
    for _ in range(45):
        alpha = rng.choice((0.5, 0.25, 0.3))
        a = round(rng.uniform(-2.0, 1.0), 2)
        n = rng.choice((4, 8, 12))
        family = rng.randrange(3)
        if family == 0:  # forward side telescoped, backward strict
            b, beta = a + n * alpha, 0.37 * alpha
        elif family == 1:  # both strict
            b, beta = a + (n + 0.37) * alpha, alpha
        else:  # forward strict, backward telescoped
            b = a + (n + 0.37) * alpha
            beta = (b - a) / n
        starts = ref_points(a, b, alpha, beta) + [b - k * beta for k in range(4)]
        starts += [a - k * beta for k in range(4)] + [a + k * alpha for k in range(4)]
        pair = []
        for _ in range(2):
            faults_at = {rng.choice(starts).hex(): rng.choice(FAULT_VALUES)
                         for _ in range(rng.choice((0, 1, 2)))}
            pair.append(faulty(rng.choice(DECAYING), faults_at))
        f, g = pair
        p = rng.choice((1.5, 2.0, 3.0))
        for name, (library, reference) in library_cases(f, g, a, b, alpha, beta, p, cfg).items():
            got, want = outcome(library), outcome(reference)
            assert got == want, (name, a, b, alpha, beta, p)
            compared += 1
            faults += want[0] == "raise"
    assert compared >= 300
    assert 30 <= faults <= compared - 100


# ----------------------------------------------------------------------
# Call counts
# ----------------------------------------------------------------------


def counted(f):
    calls = [0]

    def wrapper(t):
        calls[0] += 1
        return f(t)

    return wrapper, calls


def calls_of(run, f=lambda t: 2.0 + math.sin(t), g=lambda t: 3.0 + math.cos(t)):
    f, f_calls = counted(f)
    g, g_calls = counted(g)
    run(f, g)
    return f_calls[0] + g_calls[0]


ONE = StepPair(1.0, 1.0)


@pytest.mark.parametrize(
    "run",
    [
        lambda f, g: cauchy_schwarz_check(f, g, 0.0, 100.0, ONE),
        lambda f, g: holder_check(f, g, 0.0, 100.0, ONE, 3.0),
        lambda f, g: minkowski_check(f, g, 0.0, 100.0, ONE, 3.0),
        lambda f, g: comparison_check(lambda t: 0.1 * f(t), g, 0.0, 100.0, ONE),
    ],
    ids=["cs", "holder", "minkowski", "comparison"],
)
def test_inequality_checks_read_each_grid_point_once(run):
    assert calls_of(run) <= 202


def test_mvt_reads_each_grid_point_once():
    assert calls_of(lambda f, g: mvt_constant(f, g, 1.0, 101.0, ONE)) <= 204


@pytest.mark.parametrize("column", [False, True], ids=["calls", "column"])
def test_mvt_weight_that_does_not_compare_raises_the_reference_type_error(column):
    # A complex weight fails the block's C-level min, so the per-point
    # loop meets it and float() refuses it, as the reference does.
    g = lambda t: 1j if t == 1.5 else 1.0  # noqa: E731
    if column:
        g.column = lambda points: [g(t) for t in points]
    f = lambda t: t  # noqa: E731
    with pytest.raises(TypeError) as want:
        ref_mvt(f, g, 1.0, 3.0, 0.5, 0.5)
    with pytest.raises(TypeError) as err:
        mvt_constant(f, g, 1.0, 3.0, StepPair(0.5, 0.5))
    assert err.value.args == want.value.args


def test_ibp_reads_each_grid_point_once():
    run = lambda f, g: integration_by_parts_residual(f, g, 0.0, 100.0, 1.0)  # noqa: E731
    assert calls_of(run) <= 204


def test_ftc_reads_each_grid_point_once():
    assert calls_of(lambda f, g: ftc_residuals(f, 0.0, 100.0, 1.0)) <= 102


@pytest.mark.parametrize(
    "run, points",
    [
        (lambda f: forward_integral(f, 0.0, 100.0, 1.0), 100),
        (lambda f: backward_integral(f, 0.0, 100.0, 1.0), 100),
        (lambda f: symmetric_integral(f, 0.0, 100.0, ONE), 200),
        (lambda f: symmetric_integral(f, 0.0, 100.0, StepPair(1.0, 0.5)), 300),
    ],
    ids=["forward", "backward", "symmetric", "symmetric-two-grids"],
)
def test_plain_integrals_read_f_once_per_grid_point(run, points):
    f, calls = counted(lambda t: 2.0 + math.sin(t))
    run(f)
    assert calls[0] == points


def test_faulting_plain_integral_reads_f_again_up_to_the_fault():
    f, calls = counted(faulty(lambda t: t, {(7.0).hex(): "raise"}))
    with pytest.raises(DomainFaultError) as err:
        forward_integral(f, 0.0, 100.0, 1.0)
    assert err.value.t == 7.0
    assert calls[0] == 8 + 8  # the summing pass, then the fault pass
    f, calls = counted(faulty(lambda t: t, {(7.0).hex(): math.nan}))
    with pytest.raises(NonFiniteValueError) as err:
        forward_integral(f, 0.0, 100.0, 1.0)
    assert err.value.point == 7.0
    assert calls[0] == 100 + 8


BOTH_SIDES = [GridDirection.BACKWARD, GridDirection.FORWARD]


@pytest.mark.parametrize(
    "run, sides",
    [
        (lambda f, g: cauchy_schwarz_check(f, g, 0.0, 100.0, ONE), BOTH_SIDES),
        (lambda f, g: holder_check(f, g, 0.0, 100.0, ONE, 3.0), BOTH_SIDES),
        (lambda f, g: minkowski_check(f, g, 0.0, 100.0, ONE, 3.0), BOTH_SIDES),
        (lambda f, g: comparison_check(lambda t: 0.1 * f(t), g, 0.0, 100.0, ONE), BOTH_SIDES),
        (lambda f, g: mvt_constant(f, g, 0.0, 100.0, ONE), BOTH_SIDES),
        (lambda f, g: ftc_residuals(f, 0.0, 100.0, 1.0), [GridDirection.FORWARD]),
        (lambda f, g: integration_by_parts_residual(f, g, 0.0, 100.0, 1.0),
         [GridDirection.FORWARD]),
    ],
    ids=["cs", "holder", "minkowski", "comparison", "mvt", "ftc", "ibp"],
)
def test_checks_walk_one_side_grid_per_direction(run, sides, monkeypatch):
    # Every integral of a verifier shares its direction's grid, and the
    # grids comparison, mvt and ftc sample are their sides' walks, so
    # however many integrals a verifier builds, it walks each side once.
    walks = side_walks(run, monkeypatch)
    assert sorted(walks, key=lambda d: d.value) == sides


def side_walks(run, monkeypatch):
    """The direction of each grid walked during run, by any caller."""
    walks = []
    grid_points = operators.grid_points

    def counted_walk(anchor, target, step, direction, count, cfg=None):
        walks.append(direction)
        return grid_points(anchor, target, step, direction, count, cfg)

    monkeypatch.setattr(operators, "grid_points", counted_walk)
    monkeypatch.setattr(integrals, "grid_points", counted_walk)
    calls_of(run)
    return walks


def side_walk(a, b, step, direction):
    """The points _side walks for direction's telescoped grid on [a, b],
    or None when the side resolves to the strict route."""
    walked = []

    def on_grid(_, walk):
        walked.append(walk())
        return 0.0

    integrate = forward_integral if direction is GridDirection.FORWARD else backward_integral
    integrate(lambda t: 0.0, a, b, step, on_grid=on_grid)
    return walked[0] if walked else None


def test_sampled_grids_less_the_far_endpoint_are_the_side_walks_bit_for_bit():
    # comparison, mvt and ftc read the grids _Integrals.sampled walks as
    # their sides' walks, so each must be _side's own walk to the bit.
    rng = random.Random(1025)
    cases = [draw_case(rng) for _ in range(300)]
    cases += [(a, a, alpha, 0.0) for a in (-0.0, 0.0, 0.3, -7.1) for alpha in (0.1, 0.3, 1.0)]
    aligned = 0
    for a, b, alpha, beta in cases:
        steps = StepPair(alpha, beta)
        integrate = symmetric_integral if a < b else forward_integral
        integral = integrals._Integrals(integrate, math.sin, math.cos, a, b,
                                        steps if a < b else alpha, IntegralMode.AUTO, None, ("x",))
        grids = integral.sampled(steps)
        directions = [d for d, step in zip(GridDirection, (alpha, beta)) if step > 0.0]
        assert len(grids) == len(directions)
        for direction, points in zip(directions, grids):
            walk = side_walk(a, b, alpha if direction is GridDirection.FORWARD else beta, direction)
            if walk is not None:
                aligned += 1
                assert [t.hex() for t in points[:-1]] == [t.hex() for t in walk], (a, b, steps)
                assert integral.walks[direction] == points[:-1]
    assert aligned > 400


def test_checks_on_grids_that_do_not_coincide():
    # The backward grid misses the forward one, so it is no slice of the
    # run and each of its reads is read afresh: once by cs's backward
    # side, twice by mvt, which samples the grid before its sides walk it.
    steps = StepPair(1.0, 100.0 / 101.0)
    assert calls_of(lambda f, g: cauchy_schwarz_check(f, g, 0.0, 100.0, steps)) == 402
    assert calls_of(lambda f, g: mvt_constant(f, g, 0.0, 100.0, steps)) == 608


def test_strict_sides_call_f_and_g_for_every_term():
    cfg = SeriesConfig(tol=1e-8)
    steps = StepPair(0.7, 0.7)  # [0, 1] is off both grids
    gauss = lambda t: math.exp(-t * t)  # noqa: E731
    f, f_calls = counted(gauss)
    g, g_calls = counted(gauss)
    cauchy_schwarz_check(f, g, 0.0, 1.0, steps, IntegralMode.STRICT, cfg)
    f2, f2_calls = counted(gauss)
    g2, g2_calls = counted(gauss)
    for h in (lambda t: abs(f2(t) * g2(t)), lambda t: abs(f2(t)) ** 2, lambda t: abs(g2(t)) ** 2):
        symmetric_integral(h, 0.0, 1.0, steps, IntegralMode.STRICT, cfg)
    assert (f_calls, g_calls) == (f2_calls, g2_calls)
    assert f_calls[0] > 40  # f is read by the terms of eight strict series


# ----------------------------------------------------------------------
# Grid budget and overflow messages
# ----------------------------------------------------------------------


def test_grid_walks_beyond_max_terms_raise_before_reading_a_point():
    cfg = SeriesConfig(max_terms=50)
    f, calls = counted(lambda t: t)
    message = r"has 100 points, more than the term cap max_terms=50"
    with pytest.raises(GridBudgetError, match=message):
        forward_integral(f, 0.0, 100.0, 1.0, IntegralMode.TELESCOPED, cfg)
    with pytest.raises(GridBudgetError):
        ftc_residuals(f, 0.0, 100.0, 1.0, cfg)
    with pytest.raises(GridBudgetError):
        comparison_check(f, f, 0.0, 100.0, ONE, cfg=cfg)
    with pytest.raises(GridBudgetError):
        cauchy_schwarz_check(f, f, 0.0, 100.0, ONE, cfg=cfg)
    assert calls[0] == 0
    assert forward_integral(f, 0.0, 50.0, 1.0, cfg=cfg).value == 1225.0


def test_grid_budget_error_attributes():
    with pytest.raises(GridBudgetError) as err:
        forward_integral(lambda t: t, 0.0, 1e300, 1.0)
    assert err.value.max_terms == 1_000_000
    assert err.value.points == round(1e300)
    assert "has 1e+300 points" in str(err.value)


def test_integral_overflow_says_the_integral_overflowed():
    with pytest.raises(NonFiniteValueError) as err:
        forward_integral(math.exp, 700.0, 709.0, 0.1)
    assert err.value.point == 709.0
    assert err.value.value == math.inf
    assert str(err.value) == "the forward integral from 700.0 to 709.0 overflowed (inf)"


def test_running_sum_overflow_says_the_accumulated_integral_overflowed():
    with pytest.raises(NonFiniteValueError) as err:
        ftc_residuals(lambda t: 1e308, 0.0, 3.0, 1.0)
    assert err.value.point == 2.0
    assert err.value.value == math.inf
    assert str(err.value) == "the accumulated integral from 0.0 to 2.0 overflowed (inf)"


# ----------------------------------------------------------------------
# Column forms: read counts and memory
# ----------------------------------------------------------------------


class Columned:
    """f with a column form: every point it evaluates is recorded, through
    a column read or a call, and the two are counted apart."""

    def __init__(self, f):
        self.f, self.evaluated, self.calls, self.columns = f, [], 0, 0

    def __call__(self, t):
        self.calls += 1
        self.evaluated.append(t)
        return self.f(t)

    def column(self, points):
        self.columns += 1
        self.evaluated.extend(points)
        return [self.f(t) for t in points]


def signed(t):
    """t as a key that tells -0.0 from 0.0."""
    return t, math.copysign(1.0, t)


@pytest.mark.parametrize(
    "run, again",
    [
        (lambda f, g: cauchy_schwarz_check(f, g, -50.0, 50.0, ONE), 0),
        (lambda f, g: holder_check(f, g, -50.0, 50.0, StepPair(1.0, 2.0), 3.0), 0),
        (lambda f, g: minkowski_check(f, g, -50.0, 50.0, ONE, 3.0), 0),
        (lambda f, g: comparison_check(f, g, -50.0, 50.0, ONE), 0),
        (lambda f, g: mvt_constant(f, g, -50.0, 50.0, StepPair(1.0, 100.0 / 101.0)), 103),
        (lambda f, g: integration_by_parts_residual(f, g, -50.0, 50.0, 1.0), 0),
        (lambda f, g: ftc_residuals(f, -50.0, 50.0, 0.5), 0),
    ],
    ids=["cs", "holder", "minkowski", "comparison", "mvt", "ibp", "ftc"],
)
def test_column_forms_evaluate_each_distinct_point_once(run, again):
    # The forward, backward and shifted columns of a check share their
    # points: a column form is handed each distinct point once, in the
    # order a callable without one is called at them.  mvt's backward grid
    # (step 100/101) is no slice of the forward run, so both its reads, the
    # 102 points sampled and the side's walk of 101, are read afresh: 103
    # points more than the 201 distinct ones.
    base_f, base_g = (lambda t: 0.5 + 0.25 * math.sin(t)), (lambda t: 3.0 + math.cos(t))
    f, g = Columned(base_f), Columned(base_g)
    run(f, g)
    plain_f, plain_g = Columned(base_f), Columned(base_g)
    run(plain_f.__call__, plain_g.__call__)
    for columned, plain in ((f, plain_f), (g, plain_g)):
        keys = [signed(t) for t in columned.evaluated]
        assert len(keys) == len(set(keys)) + again
        assert keys == [signed(t) for t in plain.evaluated]
        assert columned.calls == 0
    assert f.columns > 0


def test_column_forms_read_minus_zero_and_zero_separately():
    # Neither block is strictly monotone, -0.0 == 0.0, so neither starts a
    # run: each is read afresh, whole and in its order.
    f = Columned(lambda t: math.copysign(1.0, t))
    samples = integrals.Samples(f)
    assert samples.column([0.0, -0.0, 1.0, -0.0, 0.0]) == [1.0, -1.0, 1.0, -1.0, 1.0]
    assert samples.column([-0.0, 0.0, 1.0]) == [-1.0, 1.0, 1.0]
    assert [signed(t) for t in f.evaluated] == [
        signed(t) for t in (0.0, -0.0, 1.0, -0.0, 0.0, -0.0, 0.0, 1.0)]
    assert (f.columns, f.calls) == (2, 0)


def test_a_column_that_holds_a_fault_raises_the_first_through_column_or_calls():
    points = [0.5 + 0.5 * k for k in range(2 * integrals._BLOCK + 10)]  # three blocks
    first, later = points[integrals._BLOCK + 7], points[integrals._BLOCK + 20]
    f = Columned(faulty(lambda t: t, {first.hex(): "raise", later.hex(): "raise"}))
    samples = integrals.Samples(f)
    for _ in range(2):  # a second read meets the same first fault
        with pytest.raises(DomainFaultError) as err:
            list(samples.column_or_calls(points))
        assert (err.value.t, err.value.reason, err.value.node) == (first, "injected fault", None)
    # The first block is stored and evaluated once; the block whose column
    # raised stores nothing, so each read hands it to the column form again
    # and then calls f from its start up to the fault, never the third block.
    second = points[integrals._BLOCK:2 * integrals._BLOCK]
    assert f.evaluated == points[:integrals._BLOCK] + (second + second[:8]) * 2
    assert (f.columns, f.calls) == (3, 2 * 8)


def test_an_expression_column_raises_the_fault_evaluate_meets_first():
    expression, evaluated = cli._function("1/((t - 3)*(t - 7))"), []

    def f(t):
        evaluated.append(t)
        return expression(t)

    f.column = lambda points: evaluated.extend(points) or expression.column(points)
    samples = integrals.Samples(f)
    points = [9.0, 7.0, 5.0, 3.0, 1.0]
    with pytest.raises(DomainFaultError) as err:
        list(samples.column_or_calls(points))
    with pytest.raises(DomainFaultError) as want:
        [expression(t) for t in points]
    assert err.value.t == 7.0
    assert (err.value.reason, err.value.node) == (want.value.reason, want.value.node)
    assert evaluated == points + [9.0, 7.0]  # the column, then f up to the fault
    samples.column([9.0])
    assert evaluated[-1] == 9.0  # the column that raised stored nothing


def test_a_faulting_check_calls_f_only_in_its_fault_pass():
    # The column read raises and stores nothing; the telescoped side's
    # fault pass then calls f up to the fault, once per point.
    expression, calls = cli._function("1/(t-3)"), []

    def f(t):
        calls.append(t)
        return expression(t)

    f.column = expression.column
    with pytest.raises(DomainFaultError) as err:
        cauchy_schwarz_check(f, cli._function("1"), 0.0, 6.0, StepPair(1.0, 1.0))
    assert (err.value.t, err.value.reason) == (3.0, "division by zero")
    assert calls == [0.0, 1.0, 2.0, 3.0]  # 8 calls when Samples re-read a faulting column


def test_a_callable_without_a_column_form_is_called_at_each_unread_point_in_order():
    calls = []

    def f(t):
        calls.append(t)
        if t == 4.0:
            raise DomainFaultError(None, t, "injected fault")
        return t

    samples = integrals.Samples(f)
    # A block that is no monotone run is read afresh at each of its points.
    points = [1.0, 2.0, 1.0, -0.0, 0.0, 2.0]
    assert samples.column(points) == points
    assert [signed(t) for t in calls] == [signed(t) for t in points]
    calls.clear()
    with pytest.raises(DomainFaultError):
        samples.column([3.0, 2.0, 4.0, 5.0])
    assert calls == [3.0, 2.0, 4.0]
    calls.clear()
    with pytest.raises(DomainFaultError):
        samples.column([3.0, 4.0])
    assert calls == [3.0, 4.0]  # the read that met the fault stored nothing


# ----------------------------------------------------------------------
# Reads that slice or extend a run of points
# ----------------------------------------------------------------------


def test_a_monotone_read_extending_the_run_hands_only_its_new_points_to_the_column_form():
    f = Columned(lambda t: 2.0 * t)
    samples = integrals.Samples(f)
    assert samples.column([3.0, 2.0, 1.0]) == [6.0, 4.0, 2.0]
    # A slice of the run at stride 2, with new points past its end.
    assert samples.column([3.0, 1.0, 0.5, 0.25]) == [6.0, 2.0, 1.0, 0.5]
    # Reversed, a slice of the run and a new point past its end, in the block's order.
    assert samples.column([0.125, 0.5, 2.0]) == [0.25, 1.0, 4.0]
    assert samples.column([0.125, 0.25, 0.5, 1.0, 2.0, 3.0]) == [0.25, 0.5, 1.0, 2.0, 4.0, 6.0]
    assert f.evaluated == [3.0, 2.0, 1.0, 0.5, 0.25, 0.125]
    assert (f.columns, f.calls) == (3, 0)
    assert samples.points == [3.0, 2.0, 1.0, 0.5, 0.25, 0.125]


def test_a_read_ahead_of_the_run_is_read_afresh_and_leaves_the_run_unchanged():
    f = Columned(lambda t: 2.0 * t)
    samples = integrals.Samples(f)
    assert samples.column([3.0, 2.0, 1.0]) == [6.0, 4.0, 2.0]
    # 4.0 lies ahead of the run's start, so the block is no slice of the
    # run: all its points go to the column form in one call, in its order,
    # and are stored nowhere, 0.5 past the run's end too.
    assert samples.column([4.0, 3.0, 1.0, 0.5]) == [8.0, 6.0, 2.0, 1.0]
    assert (samples.points, samples.run) == ([3.0, 2.0, 1.0], [6.0, 4.0, 2.0])
    assert samples.column([0.5, 1.0, 2.0, 3.0, 4.0]) == [1.0, 2.0, 4.0, 6.0, 8.0]
    assert samples.column([1.0, 3.0]) == [2.0, 6.0]  # still a slice of the run
    assert f.evaluated == [3.0, 2.0, 1.0] + [4.0, 3.0, 1.0, 0.5] + [0.5, 1.0, 2.0, 3.0, 4.0]
    assert (f.columns, f.calls) == (3, 0)


def test_a_check_reads_each_block_off_the_run_afresh_in_one_column_call(monkeypatch, capsys):
    # The backward grid 50 - k*0.1 misses the forward run 0 + k*0.1, so
    # its blocks are off the run: each is one column call of exactly its
    # points, in its order, and stored nowhere.
    events, off, slice_, function = [], [], integrals.Samples._slice, cli._function

    def counting(text):
        f = function(text)
        column, f.text = f.column, text

        def counted(points):
            events.append(("column", text, list(map(signed, points))))
            return column(points)

        f.column = counted
        return f

    def sliced(self, block):
        values = slice_(self, block)
        if values is None:
            off.append((self, list(block)))
            events.append(("off", self.f.text, list(map(signed, block))))
        return values

    monkeypatch.setattr(cli, "_function", counting)
    monkeypatch.setattr(integrals.Samples, "_slice", sliced)
    f_text, g_text = "sin(t)+2", "exp(-0.1*t)"
    assert cli.main(["check", "--kind", "holder", "--f", f_text, "--g", g_text, "--a", "0",
                     "--b", "50", "--alpha", "0.1", "--beta", "0.1", "--p", "3", "--json"]) == 0
    lhs = json.loads(capsys.readouterr().out)["result"]["lhs"]
    marks = [i for i, event in enumerate(events) if event[0] == "off"]
    assert len(marks) == 2  # the backward walk of f and of g, one block each
    for i in marks:
        assert events[i + 1] == ("column", *events[i][1:])
    # A second identical read calls the column form again.
    samples, block = off[0]
    read = len(events)
    assert [bits(v) for v in samples.column(block)] == [bits(samples.f(t)) for t in block]
    assert events[read:] == [("off", samples.f.text, list(map(signed, block))),
                             ("column", samples.f.text, list(map(signed, block)))]
    # lhs is the two sides' direct left-to-right sums of |f*g|, no Samples involved.
    f, g = function(f_text), function(g_text)
    forward = backward = 0.0
    for k in range(500):
        t, u = 0.0 + k * 0.1, 50.0 - k * 0.1
        forward += float(abs(f(t) * g(t)))
        backward += float(abs(f(u) * g(u)))
    assert lhs.hex() == ((0.1 / 0.2) * (0.1 * forward) + (0.1 / 0.2) * (0.1 * backward)).hex()


@pytest.mark.parametrize("beta", [1.0, 0.5, 0.0], ids=["beta-2alpha", "beta-alpha", "beta-0"])
@pytest.mark.parametrize(
    "functions",
    [
        lambda: (cli._function("1/(1+t^2)"), cli._function("2+cos(t)")),
        lambda: (lambda t: 1 / (1 + t**2), lambda t: 2 + math.cos(t)),
    ],
    ids=["column", "calls"],
)
def test_no_check_on_aligned_grids_reads_a_block_off_the_run(monkeypatch, functions, beta):
    # Every block of every kind slices each function's run or extends it
    # past its end, whether f offers a column form or not: the unshifted
    # column of a difference quotient is read before the shifted one, so
    # ibp's g never puts a point ahead of its run.
    calls, slice_ = [], integrals.Samples._slice

    def counted(self, block):
        values = slice_(self, block)
        if values is None:  # a block off the run
            calls.append(list(block))
        return values

    monkeypatch.setattr(integrals.Samples, "_slice", counted)
    f, g = functions()
    steps = StepPair(0.5, beta)
    holder_check(f, g, -2.0, 3.0, steps, 3.0)
    cauchy_schwarz_check(f, g, -2.0, 3.0, steps)
    minkowski_check(f, g, -2.0, 3.0, steps, 3.0)
    mvt_constant(f, g, -2.0, 3.0, steps)
    comparison_check(f, g, -2.0, 3.0, steps)
    if beta == 0.0:
        integration_by_parts_residual(f, g, -2.0, 3.0, 0.5)
        ftc_residuals(f, -2.0, 3.0, 0.5)
    assert calls == []


@pytest.mark.parametrize(
    "reads, evaluated",
    [
        # 0.0 matches the run's last point -0.0 by value but not by sign,
        # so [0.0, 1.0] is no slice of the run and is read afresh.
        ([[-2.0, -1.0, -0.0], [0.0, 1.0], [-0.0, 0.0, -1.0, 1.0]],
         [-2.0, -1.0, -0.0, 0.0, 1.0, -0.0, 0.0, -1.0, 1.0]),
        # -0.0 == 0.0, so a walk through both is not strictly monotone and
        # starts no run: each read is read afresh.
        ([[-1.0, -0.0, 0.0, 1.0], [1.0, 0.0, -0.0, -1.0]],
         [-1.0, -0.0, 0.0, 1.0, 1.0, 0.0, -0.0, -1.0]),
        ([[1.0, 0.0, -0.0, -1.0], [-0.0, 0.0]], [1.0, 0.0, -0.0, -1.0, -0.0, 0.0]),
    ],
    ids=["zero-ending-walk", "rising-through-zeros", "falling-through-zeros"],
)
def test_a_monotone_walk_through_minus_zero_and_zero_keeps_them_distinct(reads, evaluated):
    f = Columned(lambda t: math.copysign(1.0, t) + t)
    samples = integrals.Samples(f)
    for points in reads:
        assert samples.column(points) == [math.copysign(1.0, t) + t for t in points]
    assert [signed(t) for t in f.evaluated] == [signed(t) for t in evaluated]
    assert (f.columns, f.calls) == (len(reads), 0)


def test_a_column_form_that_raises_on_a_first_read_stores_nothing():
    points = [1.0, 2.0, 3.0, 4.0]
    f = Columned(faulty(lambda t: t, {(3.0).hex(): "raise"}))
    samples = integrals.Samples(f)
    for columns in (1, 2):  # a re-read reads f again, at every point
        with pytest.raises(DomainFaultError):
            samples.column(points)
        assert f.evaluated == points * columns
        assert (f.columns, f.calls) == (columns, 0)


def test_a_callable_without_a_column_form_that_raises_on_a_first_read_stores_nothing():
    calls = []

    def f(t):
        calls.append(t)
        if t == 3.0:
            raise DomainFaultError(None, t, "injected fault")
        return 10.0 * t

    samples = integrals.Samples(f)
    for _ in range(2):  # a re-read calls f again from the block's start
        with pytest.raises(DomainFaultError):
            samples.column([1.0, 2.0, 3.0, 4.0])
        assert (samples.points, samples.run) == ([], [])
    assert calls == [1.0, 2.0, 3.0] * 2
    assert samples.column([2.0, 1.0]) == [20.0, 10.0]
    assert calls == [1.0, 2.0, 3.0] * 2 + [2.0, 1.0]


@pytest.mark.parametrize(
    "run",
    [
        lambda f, g: cauchy_schwarz_check(f, g, 1.0, 101.0, StepPair(1.0, 0.0)),
        lambda f, g: holder_check(f, g, 1.0, 101.0, StepPair(1.0, 2.0), 3.0),
        lambda f, g: integration_by_parts_residual(f, g, 1.0, 101.0, 1.0),
        lambda f, g: mvt_constant(f, g, 1.0, 101.0, StepPair(1.0, 0.0)),
        lambda f, g: mvt_constant(f, g, 1.0, 2049.0, StepPair(1.0, 0.0)),
        lambda f, g: ftc_residuals(f, 1.0, 51.0, 0.5),
    ],
    ids=["forward-cs", "holder", "ibp-shifted", "mvt-sampled", "mvt-sampled-blocks", "ftc"],
)
def test_first_reads_kept_unkeyed_still_evaluate_each_distinct_point_once(run):
    # Grids without a zero, where each function's reads extend or slice one run.
    base_f, base_g = (lambda t: 0.5 + 0.25 * math.sin(t)), (lambda t: 3.0 + math.cos(t))
    f, g = Columned(base_f), Columned(base_g)
    run(f, g)
    plain_f, plain_g = Columned(base_f), Columned(base_g)
    run(plain_f.__call__, plain_g.__call__)
    for columned, plain in ((f, plain_f), (g, plain_g)):
        assert len(columned.evaluated) == len(set(columned.evaluated))
        assert columned.evaluated == plain.evaluated
        assert columned.calls == 0


def test_column_reads_hold_no_more_memory_than_calls():
    # A forward holder check of 10^5 grid points, its f and g read as
    # expression columns against plain Python callables.
    def peak(f, g):
        f(0.5), g(0.5)  # compiled before the trace
        gc.collect()
        tracemalloc.start()
        try:
            holder_check(f, g, 0.0, 25_000.0, StepPair(0.25, 0.0), 3.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    columns = peak(cli._function("1+sin(t)"), cli._function("2+cos(0.5*t)"))
    calls = peak(lambda t: 1 + math.sin(t), lambda t: 2 + math.cos(0.5 * t))
    # Both kinds of f keep their values in one run, so neither peaks higher.
    assert columns <= 1.05 * calls
    assert calls <= 1.05 * columns


# ----------------------------------------------------------------------
# Samples differential: Samples, which keeps one run, against a Samples
# that keys every value by point, kept here as the value oracle; like
# Samples, it reads a plain callable a whole block at a time, so a read
# that raises stores nothing
# ----------------------------------------------------------------------


def _ref_blocks(points):
    return (points[i:i + integrals._BLOCK] for i in range(0, len(points), integrals._BLOCK))


def _ref_distinct_nonzero(points):
    """Whether points are strictly monotone, so distinct, and hold no zero,
    which only points whose ends differ in sign can hold."""
    rest = points[1:]
    monotone = all(map(operator.lt, points, rest)) or all(map(operator.gt, points, rest))
    return monotone and (not points or points[0] * points[-1] > 0.0 or 0.0 not in points)


def _ref_reader(f):
    """f's column form, or else f called at each point, as a list."""
    return getattr(f, "column", None) or (lambda points: list(map(f, points)))


class ReferenceSamples:
    """A function's raw values by point, each point evaluated at most once.

    Points are keyed by value, except that -0.0 and 0.0 are distinct.  The
    unread points of each block of _BLOCK go to f's column form in one
    call, if f offers one, else to f at each point.  A read that raises
    lets the exception out and stores nothing for its block.  A point not
    stored is evaluated again when read again.

    Points are keyed only once a later read could hit them: a first read
    whose points are strictly monotone, so distinct, and none of them zero
    goes to f's column form, if f offers one, and is kept as its (points,
    values), keyed by the next read.  If that column form raises, nothing
    is stored.
    """

    def __init__(self, f):
        self.f = f
        self.values = {}
        self.first = None  # the first read's (points, values), not yet keyed

    def column(self, points):
        """f's raw values at points, in order, evaluating the unread ones."""
        values = self.values
        if self.first is not None:
            values.update(zip(*self.first))
            self.first = None
        elif not values and getattr(self.f, "column", None) and _ref_distinct_nonzero(points):
            read = list(itertools.chain.from_iterable(map(self.f.column, _ref_blocks(points))))
            self.first = points, read
            return read
        column = []
        for block in _ref_blocks(points):
            # -0.0 == 0.0 as dict keys, so a zero is keyed by its sign and itself.
            keys = [t or (math.copysign(1.0, t), t) for t in block] if 0.0 in block else block
            unread = list(dict.fromkeys(
                itertools.filterfalse(values.__contains__, keys) if values else keys))
            if unread:
                ts = unread if keys is block else [k[1] if type(k) is tuple else k for k in unread]
                read = _ref_reader(self.f)(ts)  # a read that raises stores nothing
                values.update(zip(unread, read))
            fresh = len(unread) == len(keys) and type(read) is list
            column += read if fresh else map(values.__getitem__, keys)
        return column

    def column_or_calls(self, points):
        """f's raw values at points, read lazily block by block: a block's
        column, or, if that raises, f at each of its points.  A caller that
        checks each value as it iterates then meets the first fault in
        point order, as a loop calling f would."""
        return itertools.chain.from_iterable(map(self._column_or_calls, _ref_blocks(points)))

    def _column_or_calls(self, block):
        try:
            return self.column(block)
        except Exception:
            return map(self.f, block)


def _draw_reads(rng):
    """A sequence of reads as the verifiers make them: walks of one grid
    forwards and backwards, strided, shifted by the step, the endpoint pair
    (b, a), and lists that are no slice of one walk."""
    anchor = rng.choice((-0.0, 0.0, -1.5, -2.0, 1.0, round(rng.uniform(-3.0, 3.0), 3)))
    step = rng.choice((0.5, 0.25, 1.0, 0.1, 1.0 / 3.0))
    count = rng.choice((1, 2, 3, 5, 8, 13, 30, 30, integrals._BLOCK + rng.randrange(1, 40)))
    if rng.random() < 0.3:  # a walk that ends at the origin, from either side
        anchor = -count * step if rng.random() < 0.5 else count * step
    signed = step if rng.random() < 0.5 else -step
    end = anchor + (count - 1) * signed
    walk = [anchor + k * signed for k in range(count)]
    back = [end - k * signed for k in range(count)]  # the walk from its far end
    if end == 0.0 and rng.random() < 0.5:
        back[0] = -end  # a walk ending at -0.0 where the other ends at 0.0, or back
    shapes = (
        lambda: walk,
        lambda: back,
        lambda: walk[::-1],
        lambda: walk[rng.randrange(3)::rng.randrange(1, 4)],
        lambda: back[::rng.randrange(1, 4)],
        lambda: [t + step for t in walk],
        lambda: [t - step for t in back],
        lambda: walk[:rng.randrange(1, count + 1)],
        lambda: [anchor - step * k for k in range(1, 4)][::-1] + walk,
        lambda: (end, anchor),
        lambda: walk + back,
        lambda: rng.sample(walk, len(walk)),
        lambda: [-0.0, 0.0] + walk[:3],
    )
    return [rng.choice(shapes)() for _ in range(rng.randrange(1, 6))]


def _with_column(f, column):
    """A callable giving f's values, with a column form if column is true."""
    g = lambda t: f(t)  # noqa: E731
    if column:
        g.column = lambda points: [f(t) for t in points]
    return g


def _read_outcome(samples, points, lazily):
    try:
        values = list(samples.column_or_calls(points)) if lazily else samples.column(points)
    except Exception as exc:  # the fault is part of the outcome
        return ("raise", type(exc), exc.args)
    return ("ok", [bits(v) for v in values])


def _checked_blocks(samples, outcomes):
    """samples, each block checked against the read contract: at most one
    call of its reader, of exactly the block's points past the run's end,
    in the block's order, or of exactly the whole block.  outcomes counts
    the blocks served by the run alone, those that read their points past
    its end (all of them while the run is empty), and those read whole."""
    reads, read, block_read = [], samples.read, samples._block

    def recorded(points):
        reads.append([signed(t) for t in points])
        return read(points)

    def checked(block):
        run, made = list(samples.points), len(reads)
        try:
            return block_read(block)
        finally:
            assert len(reads) - made <= 1, (block, run)
            whole = [signed(t) for t in block]
            past = [signed(t) for t in block
                    if not run or (t < run[-1] if samples.down else t > run[-1])]
            if len(reads) == made:
                outcomes["run"] += 1
            elif reads[made] == past:
                outcomes["past"] += 1
            else:
                assert reads[made] == whole, (block, run)
                outcomes["whole"] += 1

    samples.read, samples._block = recorded, checked
    return samples


def test_samples_agrees_with_the_keyed_reference_on_seeded_reads():
    rng = random.Random(21)
    base = lambda t: math.copysign(1.0, t) * (1.0 + abs(t))  # noqa: E731  tells -0.0 from 0.0
    compared = faulted = 0
    outcomes = collections.Counter()
    for _ in range(700):
        reads = _draw_reads(rng)
        faults = {}
        if rng.random() < 0.4:
            pool = [t for points in reads for t in points]
            for _ in range(rng.randrange(1, 3)):
                faults[rng.choice(pool).hex()] = rng.choice(("raise", "zerodiv", math.inf, 10**400))
        column = rng.random() < 0.8
        f = _with_column(faulty(base, faults), column)
        got, want = _checked_blocks(integrals.Samples(f), outcomes), ReferenceSamples(f)
        for points in reads:
            lazily = rng.random() < 0.5
            outcome = _read_outcome(got, points, lazily)
            assert outcome == _read_outcome(want, points, lazily), (reads, faults, column)
            compared += 1
            faulted += outcome[0] == "raise"
    assert compared > 1500 and faulted > 50
    assert min(outcomes["run"], outcomes["past"], outcomes["whole"]) > 300, outcomes
