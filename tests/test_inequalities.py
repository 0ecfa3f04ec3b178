import math
import random
import sys

import pytest

from norlund import (
    BadExponentError,
    HypothesisFailedError,
    IntegralMode,
    NegativeWeightError,
    NonFiniteValueError,
    SeriesConfig,
    StepPair,
    cauchy_schwarz_check,
    comparison_check,
    holder_check,
    minkowski_check,
    mvt_constant,
    symmetric_integral,
)

from conftest import draw_decay_function, draw_pole_pair_function, draw_symmetric_interval, symmetric_oracle

INV_SQUARE = lambda t: 1.0 / (t * t)
HALVING = lambda t: 2.0**-t
ONE = lambda t: 1.0
ZERO = lambda t: 0.0
IDENT = lambda t: t


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("end", ["a", "b"])
@pytest.mark.parametrize(
    "check",
    [
        lambda f, a, b: holder_check(f, f, a, b, StepPair(1.0, 1.0), 3.0),
        lambda f, a, b: cauchy_schwarz_check(f, f, a, b, StepPair(1.0, 1.0)),
        lambda f, a, b: minkowski_check(f, f, a, b, StepPair(1.0, 1.0), 3.0),
        lambda f, a, b: comparison_check(f, f, a, b, StepPair(1.0, 1.0)),
        lambda f, a, b: mvt_constant(f, f, a, b, StepPair(1.0, 1.0)),
    ],
    ids=["holder", "cs", "minkowski", "comparison", "mvt"],
)
def test_non_finite_endpoints_rejected_before_any_read(check, end, x):
    calls = []

    def f(t):
        calls.append(t)
        return 1.0 / (1.0 + t * t)

    a, b = (x, 2.0) if end == "a" else (0.0, x)
    with pytest.raises(ValueError) as err:
        check(f, a, b)
    assert str(err.value) == f"{end} must be finite, got {x!r}"
    assert calls == []


@pytest.mark.parametrize(
    "check",
    [
        lambda f, mode: holder_check(f, f, 0.0, 2.0, StepPair(1.0, 1.0), 2.0, mode),
        lambda f, mode: cauchy_schwarz_check(f, f, 0.0, 2.0, StepPair(1.0, 1.0), mode),
        lambda f, mode: minkowski_check(f, f, 0.0, 2.0, StepPair(1.0, 1.0), 3.0, mode),
        lambda f, mode: comparison_check(f, f, 0.0, 2.0, StepPair(1.0, 1.0), mode),
        lambda f, mode: mvt_constant(f, f, 0.0, 2.0, StepPair(1.0, 1.0), mode),
    ],
    ids=["holder", "cs", "minkowski", "comparison", "mvt"],
)
def test_a_mode_that_is_not_an_integral_mode_is_refused_before_any_read(check):
    calls = []

    def f(t):
        calls.append(t)
        return 1.0

    with pytest.raises(ValueError) as err:
        check(f, "auto")
    assert str(err.value) == "mode must be an IntegralMode, got 'auto'"
    assert calls == []


@pytest.mark.parametrize("mode", list(IntegralMode), ids=[m.value for m in IntegralMode])
@pytest.mark.parametrize(
    "check",
    [
        lambda f, mode, cfg: holder_check(f, f, 0.0, 2.0, StepPair(1.0, 1.0), 2.0, mode, cfg),
        lambda f, mode, cfg: cauchy_schwarz_check(f, f, 0.0, 2.0, StepPair(1.0, 1.0), mode, cfg),
        lambda f, mode, cfg: minkowski_check(f, f, 0.0, 2.0, StepPair(1.0, 1.0), 3.0, mode, cfg),
        lambda f, mode, cfg: comparison_check(f, f, 0.0, 2.0, StepPair(1.0, 1.0), mode, cfg),
        lambda f, mode, cfg: mvt_constant(f, f, 0.0, 2.0, StepPair(1.0, 1.0), mode, cfg),
    ],
    ids=["holder", "cs", "minkowski", "comparison", "mvt"],
)
def test_a_cfg_that_is_not_a_series_config_is_refused_before_any_read(check, mode):
    calls = []

    def f(t):
        calls.append(t)
        return 1.0

    with pytest.raises(ValueError) as err:
        check(f, mode, {"tol": 1})
    assert str(err.value) == "cfg must be a SeriesConfig or None, got {'tol': 1}"
    assert calls == []


def test_holder_equality_for_constant_pair():
    report = holder_check(ONE, ONE, 0.0, 2.0, StepPair(1.0, 1.0), p=2.0)
    assert report.lhs == 2.0
    assert abs(report.rhs - 2.0) <= 1e-12
    assert report.holds
    assert report.context["q"] == 2.0


def test_holder_zero_function():
    report = holder_check(ZERO, IDENT, 0.0, 2.0, StepPair(1.0, 1.0), p=2.0)
    assert report.lhs == 0.0
    assert report.holds


def test_holder_mixed_decay_instance():
    steps = StepPair(2.0, 2.0)
    p, q = 3.0, 1.5
    report = holder_check(INV_SQUARE, HALVING, 1.0, 5.0, steps, p=p)
    lhs = symmetric_oracle(lambda t: abs(INV_SQUARE(t) * HALVING(t)), 1.0, 5.0, 2.0, 2.0)
    rhs = symmetric_oracle(lambda t: INV_SQUARE(t) ** p, 1.0, 5.0, 2.0, 2.0) ** (1 / p)
    rhs *= symmetric_oracle(lambda t: HALVING(t) ** q, 1.0, 5.0, 2.0, 2.0) ** (1 / q)
    assert math.isclose(report.lhs, lhs, rel_tol=1e-13)
    assert math.isclose(report.rhs, rhs, rel_tol=1e-13)
    assert report.holds and report.margin > 0.0


def test_holder_bad_exponent():
    with pytest.raises(BadExponentError):
        holder_check(ONE, ONE, 0.0, 2.0, StepPair(1.0, 1.0), p=1.0)
    with pytest.raises(BadExponentError):
        minkowski_check(ONE, ONE, 0.0, 2.0, StepPair(1.0, 1.0), p=0.5)
    for check in (holder_check, minkowski_check):
        with pytest.raises(BadExponentError):
            check(ONE, ONE, 0.0, 2.0, StepPair(1.0, 1.0), p=math.inf)


@pytest.mark.parametrize(
    "check, p, a, b, t",
    [
        (holder_check, 1e308, 0.0, 2.0, 2.0),  # |f|^p on the backward grid
        (holder_check, 1.0 + 2.0**-52, 0.0, 2.0, 2.0),  # |g|^q, q = 2^52 + 1
        (minkowski_check, 2000.0, 0.0, 3.0, 1.0),  # |f + g|^p
    ],
)
def test_overflowing_power_raises_non_finite_value(check, p, a, b, t):
    with pytest.raises(NonFiniteValueError) as err:
        check(IDENT, IDENT, a, b, StepPair(1.0, 1.0), p=p)
    assert err.value.point == t
    assert err.value.value == math.inf


def test_overflowing_power_on_a_strict_term_raises_at_its_point():
    # [0, 1] is off both grids of step 0.7, so every side is strict, and
    # |f|^2 of f(0) = 1e200 overflows on the first term of the f power.
    f = lambda t: 1e200 * math.exp(-t * t)
    g = lambda t: math.exp(-t * t)
    with pytest.raises(NonFiniteValueError) as err:
        holder_check(f, g, 0.0, 1.0, StepPair(0.7, 0.7), 2.0)
    assert err.value.point == 0.0
    assert err.value.value == math.inf
    assert str(err.value) == "function value at t=0.0 is non-finite (inf)"


@pytest.mark.parametrize(
    "check, p",
    [(holder_check, (3.0,)), (cauchy_schwarz_check, ()), (minkowski_check, (3.0,))],
)
def test_a_negative_off_grid_power_integral_still_gives_a_real_rhs(check, p):
    # Off the grid a strict side is a difference of two series, and here the
    # integral of a power of |f| comes out negative (about -0.004 for |f|^3):
    # its fractional power would be complex (holder, minkowski) or a math
    # domain error (cs).
    f = lambda t: t * math.exp(-t) if t > 0 else 0.0  # noqa: E731
    g = lambda t: math.exp(-t)  # noqa: E731
    report = check(f, g, 0.3, 0.35, StepPair(1.0, 0.0), *p, IntegralMode.STRICT, SeriesConfig(tol=1e-12))
    assert type(report.rhs) is float and math.isfinite(report.rhs)


def test_checks_require_increasing_interval():
    with pytest.raises(ValueError):
        holder_check(ONE, ONE, 2.0, 0.0, StepPair(1.0, 1.0), p=2.0)
    with pytest.raises(ValueError):
        mvt_constant(ONE, ONE, 1.0, 1.0, StepPair(1.0, 1.0))


def test_cauchy_schwarz_equality_for_proportional():
    f = lambda t: 0.5 * t + 1.0
    report = cauchy_schwarz_check(f, f, 0.0, 3.0, StepPair(1.0, 1.0))
    slack = 1e-9 * max(1.0, report.lhs, report.rhs)
    assert abs(report.margin) <= slack
    assert report.holds


def test_cauchy_schwarz_reference_instance():
    report = cauchy_schwarz_check(ONE, IDENT, 0.0, 3.0, StepPair(1.0, 1.0))
    # direct sums: int 1 = 3, int t = 4.5, int t^2 = 9.5
    assert report.lhs == symmetric_oracle(lambda t: abs(t), 0.0, 3.0, 1.0, 1.0)
    assert report.lhs == 4.5
    assert math.isclose(report.rhs, math.sqrt(3.0 * 9.5), rel_tol=1e-15)
    assert report.holds


def test_cauchy_schwarz_zero_side():
    report = cauchy_schwarz_check(ONE, ZERO, 0.0, 3.0, StepPair(1.0, 1.0))
    assert report.lhs == 0.0 and report.rhs == 0.0
    assert report.holds


def test_cauchy_schwarz_matches_holder_at_p2():
    rng = random.Random(8421)
    eps = sys.float_info.epsilon
    for _ in range(20):
        iv = draw_symmetric_interval(rng)
        f = draw_decay_function(rng, iv)
        g = draw_decay_function(rng, iv)
        steps = StepPair(iv.alpha, iv.beta)
        cs = cauchy_schwarz_check(f, g, iv.a, iv.b, steps)
        hp = holder_check(f, g, iv.a, iv.b, steps, p=2.0)
        assert cs.lhs == hp.lhs
        assert abs(cs.rhs - hp.rhs) <= 2.0 * eps * max(1.0, cs.rhs)


def test_minkowski_cancellation_and_doubling():
    steps = StepPair(1.0, 1.0)
    cancel = minkowski_check(IDENT, lambda t: -t, 0.0, 2.0, steps, p=2.0)
    assert cancel.lhs == 0.0 and cancel.holds
    double = minkowski_check(IDENT, IDENT, 0.0, 2.0, steps, p=2.0)
    slack = 1e-9 * max(1.0, double.lhs, double.rhs)
    assert abs(double.margin) <= slack and double.holds


def test_minkowski_decay_instance():
    report = minkowski_check(INV_SQUARE, HALVING, 1.0, 5.0, StepPair(2.0, 2.0), p=2.0)
    lhs = symmetric_oracle(
        lambda t: abs(INV_SQUARE(t) + HALVING(t)) ** 2, 1.0, 5.0, 2.0, 2.0
    ) ** 0.5
    assert math.isclose(report.lhs, lhs, rel_tol=1e-13)
    assert report.holds


def test_holder_equality_witness():
    rng = random.Random(5150)
    iv = draw_symmetric_interval(rng)
    f = draw_decay_function(rng, iv)
    p = 3.0
    g = lambda t: abs(f(t)) ** (p - 1.0)  # |f|^(p/q) makes the bound sharp
    report = holder_check(f, g, iv.a, iv.b, StepPair(iv.alpha, iv.beta), p=p)
    assert report.holds
    assert report.margin <= 1e-8 * report.rhs


def test_comparison_trivial_and_alternating():
    steps = StepPair(1.0, 1.0)
    trivial = comparison_check(ZERO, ZERO, 0.0, 4.0, steps)
    assert trivial.lhs == 0.0 and trivial.rhs == 0.0 and trivial.holds

    f = lambda t: (-1.0) ** math.floor(t) * 2.0**-t
    g = HALVING
    report = comparison_check(f, g, 0.0, 4.0, steps)
    assert math.isclose(report.lhs, abs(symmetric_oracle(f, 0.0, 4.0, 1.0, 1.0)), rel_tol=1e-13)
    assert math.isclose(report.rhs, symmetric_oracle(g, 0.0, 4.0, 1.0, 1.0), rel_tol=1e-13)
    assert report.holds


def test_comparison_equality_at_reference_value():
    report = comparison_check(INV_SQUARE, INV_SQUARE, 1.0, 3.0, StepPair(2.0, 2.0))
    assert abs(report.lhs - 10.0 / 9.0) <= 1e-15
    assert abs(report.rhs - 10.0 / 9.0) <= 1e-15
    assert report.holds


def test_comparison_hypothesis_failure_carries_witness():
    with pytest.raises(HypothesisFailedError) as err:
        comparison_check(lambda t: 2.0, ONE, 0.0, 2.0, StepPair(1.0, 1.0))
    assert err.value.point == 0.0


def test_comparison_monotonicity_clause():
    rng = random.Random(2024)
    for _ in range(10):
        iv = draw_symmetric_interval(rng)
        steps = StepPair(iv.alpha, iv.beta)
        f = draw_decay_function(rng, iv, nonneg=True)
        h = draw_decay_function(rng, iv, nonneg=True)
        g = lambda t: f(t) + h(t)  # g >= f on the grid
        If = symmetric_integral(f, iv.a, iv.b, steps).value
        Ig = symmetric_integral(g, iv.a, iv.b, steps).value
        assert Ig >= If - 1e-10 * max(1.0, abs(If), abs(Ig))
        assert If >= -1e-10 * max(1.0, abs(If))  # nonnegativity clause


def test_mvt_constant_weight():
    report = mvt_constant(lambda t: 4.25, ONE, 0.0, 3.0, StepPair(1.0, 1.0))
    assert not report.degenerate
    assert math.isclose(report.K, 4.25, rel_tol=1e-15)
    assert report.m == report.M == 4.25


def test_mvt_degenerate_weight():
    report = mvt_constant(INV_SQUARE, ZERO, 1.0, 3.0, StepPair(2.0, 2.0))
    assert report.degenerate and report.K == 0.0
    weighted = symmetric_integral(
        lambda t: INV_SQUARE(t) * ZERO(t), 1.0, 3.0, StepPair(2.0, 2.0)
    )
    assert abs(weighted.value) <= 1e-12


def test_mvt_reference_instance():
    report = mvt_constant(INV_SQUARE, ONE, 1.0, 3.0, StepPair(2.0, 2.0))
    assert not report.degenerate
    assert abs(report.K - 5.0 / 9.0) <= 1e-15
    assert report.m == 1.0 / 9.0
    assert report.M == 1.0


def test_mvt_negative_weight_rejected():
    with pytest.raises(NegativeWeightError) as err:
        mvt_constant(ONE, lambda t: -1.0, 0.0, 2.0, StepPair(1.0, 1.0))
    assert err.value.value == -1.0



def test_mvt_weight_within_rounding_slack_is_accepted():
    report = mvt_constant(ONE, lambda t: -5e-10, 0.0, 2.0, StepPair(1.0, 1.0))
    assert report.degenerate and report.holds
    with pytest.raises(NegativeWeightError):
        mvt_constant(ONE, lambda t: -2e-9, 0.0, 2.0, StepPair(1.0, 1.0))


def _weight_at_half(value, column):
    """g = 1 except g(0.5) = value, with a column form of raw values or without."""
    g = lambda t: value if t == 0.5 else 1.0  # noqa: E731
    if column:
        g.column = lambda points: [g(t) for t in points]
    return g


@pytest.mark.parametrize("column", [False, True], ids=["calls", "column"])
def test_mvt_weight_minus_infinity_is_non_finite_and_a_small_negative_one_is_negative(column):
    # _viol_tol(-inf, 0.0) is inf, so -inf passes the weight test and the
    # integral refuses it; -2e-9 is below -1e-9 and fails it at its point.
    with pytest.raises(NonFiniteValueError) as err:
        mvt_constant(IDENT, _weight_at_half(-math.inf, column), 0, 1, StepPair(0.5, 0.5))
    assert (err.value.point, err.value.value) == (0.5, -math.inf)
    with pytest.raises(NegativeWeightError) as err:
        mvt_constant(IDENT, _weight_at_half(-2e-9, column), 0, 1, StepPair(0.5, 0.5))
    assert (err.value.point, err.value.value) == (0.5, -2e-9)


def test_mvt_holds_is_the_bracket_verdict():
    assert mvt_constant(INV_SQUARE, ONE, 1.0, 3.0, StepPair(2.0, 2.0)).holds
    assert mvt_constant(INV_SQUARE, ZERO, 1.0, 3.0, StepPair(2.0, 2.0)).holds
    # b = 1.5 is off the grid, so the strict integral of f*g also reads
    # f(1.5 + k) = -1, which the sampled extrema m = M = 1 never see.
    report = mvt_constant(
        lambda t: math.cos(2.0 * math.pi * t), lambda t: math.exp(-t), 0.0, 1.5,
        StepPair(1.0, 0.0), cfg=SeriesConfig(tol=1e-10),
    )
    assert report.m == report.M == 1.0 and report.K > 1.5
    assert not report.holds

def test_mvt_bracketing_on_family():
    rng = random.Random(60451)
    for _ in range(20):
        iv = draw_symmetric_interval(rng)
        f = draw_decay_function(rng, iv)
        g = draw_decay_function(rng, iv, nonneg=True)
        report = mvt_constant(f, g, iv.a, iv.b, StepPair(iv.alpha, iv.beta))
        if not report.degenerate:
            slack = 1e-9 * max(1.0, abs(report.m), abs(report.M))
            assert report.m - slack <= report.K <= report.M + slack


def test_strict_mode_check_runs():
    # The alignment hypothesis is not required when every series
    # converges; no sharpness is asserted here, only that the strict
    # route produces a finite report.
    rng = random.Random(11)
    iv = draw_symmetric_interval(rng)
    f = draw_pole_pair_function(rng, iv)
    g = draw_pole_pair_function(rng, iv)
    report = holder_check(
        f, g, iv.a, iv.b, StepPair(iv.alpha, iv.beta), p=2.0,
        mode=IntegralMode.STRICT, cfg=SeriesConfig(tol=1e-3),
    )
    assert math.isfinite(report.lhs) and math.isfinite(report.rhs)
    assert report.context["mode_used"] == "strict"
