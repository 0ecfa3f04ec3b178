"""Values-first checks: call counts, the grid budget, overflow messages, a
seeded differential run against a per-integral reference, and the reads
and memory of functions that offer a column form.

The reference below is written from scratch: every integral of a check
calls f and g at each grid point it needs, in the order the checks have
always read them.  The library's telescoped sides read f and g once per
side, a block at a time, and sum each block as they read it, so they
must give the same bits and the same first fault: exception type, point
and message.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
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


def test_a_row_that_faults_alone_faults_at_the_reference_point_in_its_fault_pass():
    # On [0, 600] with steps (1, 0.5), 3**700 overflows in the backward
    # side's abs(x)**p row only, at its second point, t=599.5.  The fused
    # loop raises there, having read the first block of f and of g (1,024
    # points), so every row of the side is summed by its fault pass: the
    # product row calls f and g at all 1,200 points, finite, and the power
    # row calls f up to t=599.5.  With the forward side's 600 reads of each,
    # f is called 2,826 times and g 2,824.
    f, f_calls = counted(lambda t: 3.0 if t % 1.0 else 0.5)
    g, g_calls = counted(lambda t: 1.25)
    with pytest.raises(NonFiniteValueError) as err:
        holder_check(f, g, 0.0, 600.0, StepPair(1.0, 0.5), 700.0)
    assert err.value.point == 599.5
    assert str(err.value) == "function value at t=599.5 is non-finite (inf)"
    assert (f_calls[0], g_calls[0]) == (2826, 2824)


@pytest.mark.parametrize("beta", [1.0, 0.5, 0.0], ids=["beta-2alpha", "beta-alpha", "beta-0"])
@pytest.mark.parametrize(
    "functions",
    [
        lambda: (cli._function("1/(1+t^2)"), cli._function("2+cos(t)")),
        lambda: (lambda t: 1 / (1 + t**2), lambda t: 2 + math.cos(t)),
    ],
    ids=["column", "calls"],
)
def test_checks_on_aligned_grids_give_the_reference_bits_whichever_kind_f_is(functions, beta):
    # The backward grid with beta = alpha or 2 alpha holds the forward
    # grid's points, and beta = 0 makes the check one-sided.  Expression
    # columns are read a block at a time, plain callables point by point;
    # either way every entry point gives the reference's bits.
    f, g = functions()
    for name, (library, reference) in library_cases(f, g, -2.0, 3.0, 0.5, beta, 3.0).items():
        got = outcome(library)
        assert got[0] == "ok" and got == outcome(reference), name


FAULT_SITES = [  # f's and g's faults by point on [0, 1500] with steps (1, 0.5)
    ({700.5: "raise"}, {}),  # the backward grid's second block only
    ({1100.0: math.nan}, {}),  # the forward grid's second block, the backward's first
    ({}, {700.5: math.inf}),
    ({}, {1300.0: "zerodiv"}),  # past the forward grid's first block, and shifted to by ibp
    # In one block, f's column meets its fault after g's point: the first
    # fault in point order is g's.
    ({1100.0: "raise"}, {1050.0: "raise"}),
]


@pytest.mark.parametrize("column", [False, True], ids=["calls", "column"])
@pytest.mark.parametrize("kind", ["holder", "cs", "minkowski", "comparison", "mvt", "ibp", "ftc"])
def test_a_fault_past_a_sides_first_block_raises_the_reference_fault(kind, column):
    # The fused loop has summed a whole block when the fault meets it, and
    # a column read raises at a block's first fault, not the first in point
    # order, so the side's totals are dropped for its fault pass, which
    # raises the fault the reference meets first: type, point and message.
    compared = 0
    for f_faults, g_faults in FAULT_SITES:
        f = faulty(BASE_F, {t.hex(): value for t, value in f_faults.items()})
        g = faulty(BASE_G, {t.hex(): value for t, value in g_faults.items()})
        if column:
            f, g = Columned(f), Columned(g)
        library, reference = library_cases(f, g, 0.0, 1500.0, 1.0, 0.5, 3.0)[kind]
        want = outcome(reference)
        assert outcome(library) == want, (f_faults, g_faults)
        compared += want[0] == "raise"
    # ftc reads f alone, and neither it nor ibp reads the backward grid.
    assert compared == {"ftc": 2, "ibp": 3}.get(kind, 5)


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
BASE_F, BASE_G = (lambda t: 0.5 + 0.25 * math.sin(t)), (lambda t: 3.0 + math.cos(t))


@pytest.mark.parametrize(
    "run, reads, columns",
    [
        (lambda f, g: cauchy_schwarz_check(f, g, 0.0, 100.0, ONE), (200, 200), (2, 2)),
        (lambda f, g: holder_check(f, g, 0.0, 100.0, ONE, 3.0), (200, 200), (2, 2)),
        (lambda f, g: minkowski_check(f, g, 0.0, 100.0, ONE, 3.0), (200, 200), (2, 2)),
        (lambda f, g: comparison_check(f, g, 0.0, 100.0, ONE), (402, 402), (4, 4)),
        (lambda f, g: mvt_constant(f, g, 0.0, 100.0, ONE), (402, 402), (4, 4)),
        (lambda f, g: integration_by_parts_residual(f, g, 0.0, 100.0, 1.0), (202, 202), (3, 3)),
        (lambda f, g: ftc_residuals(f, 0.0, 100.0, 1.0), (303, 0), (4, 0)),
        (lambda f, g: holder_check(f, g, 0.0, 100.0, StepPair(1.0, 2.0), 3.0), (150, 150),
         (2, 2)),
    ],
    ids=["cs", "holder", "minkowski", "comparison", "mvt", "ibp", "ftc", "holder-1-2"],
)
def test_each_read_of_a_grid_reads_each_of_its_points_once(run, reads, columns):
    # Each telescoped side reads its own grid, 100 points forward and 100
    # (or 50) backward, and its shifted points (ibp, ftc) as a column of
    # their own.  comparison and mvt read their two sampled grids of 101
    # points once more (mvt reads g there for its weights and f for its
    # extrema), ftc its grid of 101 for the running sum, and ftc and ibp
    # the values at b and a.  A column form is handed the same points, one
    # call per block: here each grid is one block.
    f, f_calls = counted(BASE_F)
    g, g_calls = counted(BASE_G)
    run(f, g)
    assert (f_calls[0], g_calls[0]) == reads
    f, g = Columned(BASE_F), Columned(BASE_G)
    run(f, g)
    assert (len(f.evaluated), len(g.evaluated)) == reads
    assert (f.columns, g.columns) == columns
    assert f.calls == g.calls == 0


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
    # Each side reads its own grid, the backward one (101 points) missing
    # the forward one (100): cs reads f and g at each of its sides' 201
    # points, and mvt reads them there too and on its two sampled grids,
    # 203 points more for each of f and g.
    steps = StepPair(1.0, 100.0 / 101.0)
    assert calls_of(lambda f, g: cauchy_schwarz_check(f, g, 0.0, 100.0, steps)) == 402
    assert calls_of(lambda f, g: mvt_constant(f, g, 0.0, 100.0, steps)) == 808


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
    a column read or a call, and the two are counted apart; reads holds
    the points of each column call."""

    def __init__(self, f):
        self.f, self.evaluated, self.reads, self.calls, self.columns = f, [], [], 0, 0

    def __call__(self, t):
        self.calls += 1
        self.evaluated.append(t)
        return self.f(t)

    def column(self, points):
        self.columns += 1
        self.evaluated.extend(points)
        self.reads.append(list(points))
        return [self.f(t) for t in points]


def signed(t):
    """t as a key that tells -0.0 from 0.0."""
    return t, math.copysign(1.0, t)


def read_lazily(f, points):
    """f's values at points through integrals._column_or_calls, one by one."""
    return itertools.chain.from_iterable(integrals._column_or_calls(f, points))


@pytest.mark.parametrize(
    "run",
    [
        lambda f, g: cauchy_schwarz_check(f, g, -50.0, 50.0, ONE),
        lambda f, g: holder_check(f, g, -50.0, 50.0, StepPair(1.0, 2.0), 3.0),
        lambda f, g: minkowski_check(f, g, -50.0, 50.0, ONE, 3.0),
        lambda f, g: comparison_check(f, g, -50.0, 50.0, ONE),
        lambda f, g: mvt_constant(f, g, -50.0, 50.0, StepPair(1.0, 100.0 / 101.0)),
        lambda f, g: mvt_constant(f, g, 1.0, 2049.0, StepPair(1.0, 0.0)),
        lambda f, g: integration_by_parts_residual(f, g, -50.0, 50.0, 1.0),
        lambda f, g: ftc_residuals(f, -50.0, 50.0, 0.5),
        lambda f, g: ftc_residuals(f, 1.0, 51.0, 0.5),
    ],
    ids=["cs", "holder", "minkowski", "comparison", "mvt", "mvt-blocks", "ibp", "ftc",
         "ftc-no-zero"],
)
def test_column_forms_are_handed_the_points_a_callable_is_called_at_in_order(run):
    # A column form is handed every point a callable without one is called
    # at, -0.0 and 0.0 apart, in the same order, and is never called.
    f, g = Columned(BASE_F), Columned(BASE_G)
    run(f, g)
    plain_f, plain_g = Columned(BASE_F), Columned(BASE_G)
    run(plain_f.__call__, plain_g.__call__)
    for columned, plain in ((f, plain_f), (g, plain_g)):
        assert [signed(t) for t in columned.evaluated] == [signed(t) for t in plain.evaluated]
        assert columned.calls == 0
    assert f.columns > 0


def test_a_check_side_reads_each_column_in_one_call_per_block(monkeypatch, capsys):
    # holder on [0, 250] with steps 0.1: each side walks 2,500 points, three
    # blocks, and reads them a block at a time, f's column then g's, each
    # call exactly the block's points in the walk's order.
    events, function = [], cli._function

    def counting(text):
        f = function(text)
        column = f.column

        def counted(points):
            events.append((text, list(map(signed, points))))
            return column(points)

        f.column = counted
        return f

    monkeypatch.setattr(cli, "_function", counting)
    f_text, g_text = "sin(t)+2", "exp(-0.1*t)"
    assert cli.main(["check", "--kind", "holder", "--f", f_text, "--g", g_text, "--a", "0",
                     "--b", "250", "--alpha", "0.1", "--beta", "0.1", "--p", "3", "--json"]) == 0
    lhs = json.loads(capsys.readouterr().out)["result"]["lhs"]
    walks = [[0.0 + k * 0.1 for k in range(2500)], [250.0 - k * 0.1 for k in range(2500)]]
    blocks = [walk[i:i + integrals._BLOCK] for walk in walks
              for i in range(0, 2500, integrals._BLOCK)]
    assert events == [(text, list(map(signed, block))) for block in blocks
                      for text in (f_text, g_text)]
    # lhs is the two sides' direct left-to-right sums of |f*g|.
    f, g = function(f_text), function(g_text)
    forward = backward = 0.0
    for t, u in zip(*walks):
        forward += float(abs(f(t) * g(t)))
        backward += float(abs(f(u) * g(u)))
    assert lhs.hex() == ((0.1 / 0.2) * (0.1 * forward) + (0.1 / 0.2) * (0.1 * backward)).hex()


def test_a_shifted_column_is_read_at_each_block_plus_the_step():
    # ibp's side reads f at each block of its walk and then at the block's
    # points plus alpha, one call each, and then f at b and a; g likewise.
    f, g = Columned(BASE_F), Columned(BASE_G)
    integration_by_parts_residual(f, g, 0.0, 2500.0, 1.0)
    walk = [0.0 + k * 1.0 for k in range(2500)]
    blocks = [walk[i:i + integrals._BLOCK] for i in range(0, 2500, integrals._BLOCK)]
    want = [read for block in blocks for read in (block, [t + 1.0 for t in block])]
    assert f.reads == g.reads == want + [[2500.0, 0.0]]


def test_column_forms_read_minus_zero_and_zero_separately():
    # Nothing is matched by value: each block goes to the column form
    # whole and in its order, and an unshifted side reads its walk's own
    # points, so the backward walk from b = -0.0 reads f at -0.0.
    f = Columned(lambda t: math.copysign(1.0, t))
    assert list(read_lazily(f, [0.0, -0.0, 1.0, -0.0, 0.0])) == [1.0, -1.0, 1.0, -1.0, 1.0]
    assert list(read_lazily(f, [-0.0, 0.0, 1.0])) == [-1.0, 1.0, 1.0]
    assert [signed(t) for t in f.evaluated] == [
        signed(t) for t in (0.0, -0.0, 1.0, -0.0, 0.0, -0.0, 0.0, 1.0)]
    assert (f.columns, f.calls) == (2, 0)
    f = Columned(lambda t: math.copysign(1.0, t))
    report = cauchy_schwarz_check(f, lambda t: 1.0, -3.0, -0.0, ONE)
    assert [list(map(signed, read)) for read in f.reads] == [
        list(map(signed, points)) for points in ([-3.0, -2.0, -1.0], [-0.0, -1.0, -2.0])]
    assert report.lhs == 3.0


@pytest.mark.parametrize(
    "reads",
    [
        [[-2.0, -1.0, -0.0], [0.0, 1.0], [-0.0, 0.0, -1.0, 1.0]],
        [[-1.0, -0.0, 0.0, 1.0], [1.0, 0.0, -0.0, -1.0]],
        [[1.0, 0.0, -0.0, -1.0], [-0.0, 0.0]],
    ],
    ids=["zero-ending-walk", "rising-through-zeros", "falling-through-zeros"],
)
def test_a_monotone_walk_through_minus_zero_and_zero_keeps_them_distinct(reads):
    # Each read is one column call of exactly its points, signs kept, and
    # no read is matched against an earlier one, so a walk that ends at
    # -0.0 does not serve a later read that starts at 0.0.
    def h(t):
        return math.copysign(1.0, t) + t

    f = Columned(h)
    for points in reads:
        want = [h(t).hex() for t in points]
        assert [v.hex() for v in read_lazily(f, points)] == want
        assert [v.hex() for v in read_lazily(h, points)] == want
    assert [list(map(signed, read)) for read in f.reads] == [
        list(map(signed, points)) for points in reads]
    assert (f.columns, f.calls) == (len(reads), 0)


def test_a_column_that_holds_a_fault_raises_the_first_through_column_or_calls():
    points = [0.5 + 0.5 * k for k in range(2 * integrals._BLOCK + 10)]  # three blocks
    first, later = points[integrals._BLOCK + 7], points[integrals._BLOCK + 20]
    f = Columned(faulty(lambda t: t, {first.hex(): "raise", later.hex(): "raise"}))
    for _ in range(2):  # a second read meets the same first fault
        with pytest.raises(DomainFaultError) as err:
            list(read_lazily(f, points))
        assert (err.value.t, err.value.reason, err.value.node) == (first, "injected fault", None)
    # Each read hands the first block, then the second, to the column form;
    # the second raises, so f is called from its start up to the fault, and
    # the third block is never read.  Nothing is kept from one read to the next.
    second = points[integrals._BLOCK:2 * integrals._BLOCK]
    assert f.evaluated == (points[:integrals._BLOCK] + second + second[:8]) * 2
    assert (f.columns, f.calls) == (4, 2 * 8)


def test_an_expression_column_raises_the_fault_evaluate_meets_first():
    expression, evaluated = cli._function("1/((t - 3)*(t - 7))"), []

    def f(t):
        evaluated.append(t)
        return expression(t)

    f.column = lambda points: evaluated.extend(points) or expression.column(points)
    points = [9.0, 7.0, 5.0, 3.0, 1.0]
    with pytest.raises(DomainFaultError) as err:
        list(read_lazily(f, points))
    with pytest.raises(DomainFaultError) as want:
        [expression(t) for t in points]
    assert err.value.t == 7.0
    assert (err.value.reason, err.value.node) == (want.value.reason, want.value.node)
    assert evaluated == points + [9.0, 7.0]  # the column, then f up to the fault


def test_a_faulting_check_calls_f_only_in_its_fault_pass():
    # The side's column read raises, so its loop sums nothing; the
    # telescoped side's fault pass then calls f up to the fault, once per point.
    expression, calls = cli._function("1/(t-3)"), []

    def f(t):
        calls.append(t)
        return expression(t)

    f.column = expression.column
    with pytest.raises(DomainFaultError) as err:
        cauchy_schwarz_check(f, cli._function("1"), 0.0, 6.0, StepPair(1.0, 1.0))
    assert (err.value.t, err.value.reason) == (3.0, "division by zero")
    assert calls == [0.0, 1.0, 2.0, 3.0]


def test_a_callable_without_a_column_form_is_called_at_each_point_in_order():
    calls = []

    def f(t):
        calls.append(t)
        if t == 4.0:
            raise DomainFaultError(None, t, "injected fault")
        return t

    points = [1.0, 2.0, 1.0, -0.0, 0.0, 2.0]
    assert list(read_lazily(f, points)) == points
    assert [signed(t) for t in calls] == [signed(t) for t in points]
    calls.clear()
    values = read_lazily(f, [3.0, 2.0, 4.0, 5.0])
    assert calls == []  # nothing is called before a value is asked for
    # The block's read meets the fault, so f is called again from the
    # block's start, lazily, and the caller meets the fault at its point.
    assert next(values) == 3.0 and calls == [3.0, 2.0, 4.0, 3.0]
    with pytest.raises(DomainFaultError):
        list(values)
    assert calls == [3.0, 2.0, 4.0, 3.0, 2.0, 4.0]


def test_column_reads_hold_no_more_memory_than_calls():
    # A holder check of 10^5 forward grid points, and as many backward
    # with beta = alpha, its f and g read as expression columns against
    # plain Python callables.
    def peak(f, g, beta):
        f(0.5), g(0.5)  # compiled before the trace
        gc.collect()
        tracemalloc.start()
        try:
            holder_check(f, g, 0.0, 25_000.0, StepPair(0.25, beta), 3.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for beta in (0.0, 0.25):
        columns = peak(cli._function("1+sin(t)"), cli._function("2+cos(0.5*t)"), beta)
        calls = peak(lambda t: 1 + math.sin(t), lambda t: 2 + math.cos(0.5 * t), beta)
        # No value outlives its block, whichever kind f is, so neither
        # peaks higher, and the peak is about the side's list of points
        # (32 bytes a point) and one block's columns.
        assert columns <= 1.05 * calls, beta
        assert calls <= 1.05 * columns, beta
        assert max(columns, calls) < 40 * 100_000, beta


# ----------------------------------------------------------------------
# _column_or_calls differential: against a loop calling f, on the reads
# the verifiers make, with and without a column form and with faults
# ----------------------------------------------------------------------


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


def test_column_or_calls_agrees_with_a_loop_calling_f_on_seeded_reads():
    # Each value is f's, and a read that faults raises the fault a loop
    # calling f meets first, whether f's column form raises or f has none.
    rng = random.Random(21)
    base = lambda t: math.copysign(1.0, t) * (1.0 + abs(t))  # noqa: E731  tells -0.0 from 0.0
    compared = faulted = 0
    for _ in range(700):
        reads = _draw_reads(rng)
        faults = {}
        if rng.random() < 0.4:
            pool = [t for points in reads for t in points]
            for _ in range(rng.randrange(1, 3)):
                faults[rng.choice(pool).hex()] = rng.choice(("raise", "zerodiv", math.inf, 10**400))
        h = faulty(base, faults)
        f = Columned(h) if rng.random() < 0.8 else h
        for points in reads:
            got = outcome(lambda: tuple(read_lazily(f, points)))
            assert got == outcome(lambda: tuple(h(t) for t in points)), (reads, faults)
            compared += 1
            faulted += got[0] == "raise"
    assert compared > 1500 and faulted > 50
