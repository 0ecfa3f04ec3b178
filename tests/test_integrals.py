import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norlund import (
    IntegralMode,
    NonFiniteValueError,
    NotAlignedError,
    NotIntegrableError,
    SeriesConfig,
    StepPair,
    Verdict,
    ZeroStepError,
    antiderivative,
    backward_integral,
    backward_integral_from_minus_infinity,
    forward_integral,
    forward_integral_to_infinity,
    ftc_residuals,
    integration_by_parts_residual,
    symmetric_integral,
    zero_extension,
)

from conftest import (
    draw_decay_function,
    draw_forward_interval,
    draw_pole_pair_function,
    draw_symmetric_interval,
    forward_sum_oracle,
    symmetric_oracle,
)

INV_SQUARE = lambda t: 1.0 / (t * t)
HALVING = lambda t: 2.0**-t


# ----------------------------------------------------------------------
# Improper one-sided integrals
# ----------------------------------------------------------------------


def test_forward_to_infinity_of_zero():
    r = forward_integral_to_infinity(lambda t: 0.0, 5.0, 0.7)
    assert r.value == 0.0 and r.verdict is Verdict.CONVERGED


def test_forward_to_infinity_geometric():
    # alpha * sum 2^-k = 2 at x=0, alpha=1
    r = forward_integral_to_infinity(HALVING, 0.0, 1.0)
    assert r.verdict is Verdict.CONVERGED
    assert abs(r.value - 2.0) <= 1e-11


def test_forward_to_infinity_constant_diverges_as_verdict():
    r = forward_integral_to_infinity(lambda t: 1.0, 0.0, 1.0)
    assert r.verdict is Verdict.DIVERGENT


def test_backward_from_minus_infinity_examples():
    r = backward_integral_from_minus_infinity(lambda t: 0.0, 0.0, 1.0)
    assert r.value == 0.0 and r.verdict is Verdict.CONVERGED
    r = backward_integral_from_minus_infinity(lambda t: 2.0**t, 0.0, 1.0)
    assert r.verdict is Verdict.CONVERGED
    assert abs(r.value - 2.0) <= 1e-11
    # odd-integer reciprocal squares: grid 3, 1, -1, -3, ...
    r = backward_integral_from_minus_infinity(INV_SQUARE, 3.0, 2.0, SeriesConfig(tol=1e-6))
    assert r.verdict is Verdict.CONVERGED


# ----------------------------------------------------------------------
# Forward integral
# ----------------------------------------------------------------------


def test_forward_integral_telescoped_is_exact():
    r = forward_integral(INV_SQUARE, 1.0, 3.0, 2.0, IntegralMode.TELESCOPED)
    assert r.value == 2.0
    assert r.alignment is not None and r.alignment.k1 == 1


def test_forward_integral_strict_agrees():
    r = forward_integral(INV_SQUARE, 1.0, 3.0, 2.0, IntegralMode.STRICT, SeriesConfig(tol=1e-6))
    assert r.mode_used is IntegralMode.STRICT
    assert r.forward_diag is not None
    assert abs(r.value - 2.0) <= 1e-9


def test_forward_integral_geometric_both_modes():
    tel = forward_integral(HALVING, 0.0, 1.0, 1.0, IntegralMode.TELESCOPED)
    assert tel.value == 1.0
    strict = forward_integral(HALVING, 0.0, 1.0, 1.0, IntegralMode.STRICT)
    assert abs(strict.value - 1.0) <= 1e-11


def test_forward_integral_empty_interval_is_exactly_zero():
    f = lambda t: 17.3 / (1.0 + t * t)
    assert forward_integral(f, 2.0, 2.0, 0.7).value == 0.0
    strict = forward_integral(HALVING, 2.0, 2.0, 1.0, IntegralMode.STRICT)
    assert strict.value == 0.0
    assert strict.forward_diag is not None  # diagnostics still reported


def test_forward_integral_empty_interval_strict_still_demands_convergence():
    with pytest.raises(NotIntegrableError):
        forward_integral(lambda t: 1.0, 2.0, 2.0, 1.0, IntegralMode.STRICT)


def test_forward_integral_reversed_endpoints_negate():
    fwd = forward_integral(INV_SQUARE, 1.0, 5.0, 2.0)
    rev = forward_integral(INV_SQUARE, 5.0, 1.0, 2.0)
    assert rev.value == -fwd.value
    # strict mode is antisymmetric by construction of the series difference
    strict = forward_integral(HALVING, 1.0, 0.0, 1.0, IntegralMode.STRICT)
    assert abs(strict.value + 1.0) <= 1e-11


def test_forward_integral_not_aligned():
    with pytest.raises(NotAlignedError):
        forward_integral(lambda t: t, 0.0, 1.0, 0.3, IntegralMode.TELESCOPED)


def test_forward_integral_strict_divergent_is_not_integrable():
    with pytest.raises(NotIntegrableError):
        forward_integral(lambda t: 1.0, 0.0, 1.0, 1.0, IntegralMode.STRICT)


def test_auto_prefers_telescoped_even_when_strict_converges():
    r = forward_integral(HALVING, 0.0, 4.0, 1.0, IntegralMode.AUTO)
    assert r.mode_used is IntegralMode.TELESCOPED


def test_zero_step_rejected():
    with pytest.raises(ZeroStepError):
        forward_integral(lambda t: t, 0.0, 1.0, 0.0)
    with pytest.raises(ZeroStepError):
        backward_integral(lambda t: t, 0.0, 1.0, -2.0)


def test_telescoped_rejects_non_finite_values():
    from norlund import NonFiniteValueError

    def bad(t):
        return math.inf if t == 1.0 else 1.0

    with pytest.raises(NonFiniteValueError) as err:
        forward_integral(bad, 0.0, 3.0, 1.0, IntegralMode.TELESCOPED)
    assert err.value.point == 1.0


@pytest.mark.parametrize(
    "f, mode",
    [
        # finite values whose sum overflows
        (lambda t: 1e308, IntegralMode.TELESCOPED),
        # converged series whose values overflow, so their difference is NaN
        (lambda t: 1.7e308 * math.exp(-t), IntegralMode.STRICT),
    ],
    ids=["telescoped", "strict"],
)
def test_non_finite_integral_value_raises(f, mode):
    from norlund import NonFiniteValueError

    with pytest.raises(NonFiniteValueError) as err:
        forward_integral(f, 0.0, 3.0, 0.5, mode, SeriesConfig(tol=1e-3))
    assert err.value.point == 3.0
    assert not math.isfinite(err.value.value)


@pytest.mark.parametrize(
    "improper, x, message",
    [
        (forward_integral_to_infinity, 0.0,
         "the forward integral from 0.0 to infinity overflowed (nan)"),
        (backward_integral_from_minus_infinity, 3.0,
         "the backward integral from -infinity to 3.0 overflowed (nan)"),
    ],
    ids=["forward", "backward"],
)
def test_improper_integral_that_overflows_raises(improper, x, message):
    from norlund import NonFiniteValueError

    # each term is finite, but the converged sum overflows
    f = lambda t: 1.7e308 * math.exp(-abs(t - x))  # noqa: E731
    with pytest.raises(NonFiniteValueError) as err:
        improper(f, x, 0.5, SeriesConfig(tol=1e-3))
    assert err.value.point == x
    assert math.isnan(err.value.value)
    assert str(err.value) == message


@pytest.mark.parametrize("step", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda f, step: forward_integral_to_infinity(f, 0.0, step), "alpha"),
        (lambda f, step: backward_integral_from_minus_infinity(f, 0.0, step), "beta"),
        (lambda f, step: forward_integral(f, 0.0, 1.0, step), "alpha"),
        (lambda f, step: forward_integral(f, 0.0, 1.0, step, IntegralMode.STRICT), "alpha"),
        (lambda f, step: backward_integral(f, 0.0, 1.0, step), "beta"),
        (lambda f, step: antiderivative(f, 0.0, step), "alpha"),
        (lambda f, step: ftc_residuals(f, 0.0, 1.0, step), "alpha"),
        (lambda f, step: integration_by_parts_residual(f, f, 0.0, 1.0, step), "alpha"),
    ],
    ids=["forward_integral_to_infinity", "backward_integral_from_minus_infinity",
         "forward_integral", "forward_integral-strict", "backward_integral", "antiderivative",
         "ftc_residuals", "integration_by_parts_residual"],
)
def test_non_finite_steps_rejected_before_any_read(call, name, step):
    # symmetric_integral and the checks take a StepPair, which refuses them itself
    calls = []

    def f(t):
        calls.append(t)
        return t

    with pytest.raises(ValueError) as err:
        call(f, step)
    assert str(err.value) == f"{name} must be finite, got {step!r}"
    assert calls == []


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda f, x: forward_integral(f, x, 2.0, 1.0), "a"),
        (lambda f, x: forward_integral(f, 0.0, x, 1.0), "b"),
        (lambda f, x: forward_integral(f, 0.0, x, 1.0, IntegralMode.STRICT), "b"),
        (lambda f, x: backward_integral(f, x, 0.0, 1.0), "a"),
        (lambda f, x: symmetric_integral(f, 0.0, x, StepPair(1.0, 1.0)), "b"),
        (lambda f, x: antiderivative(f, x, 1.0)(2.0), "a"),
        (lambda f, x: antiderivative(f, 0.0, 1.0)(x), "b"),
        (lambda f, x: forward_integral_to_infinity(f, x, 1.0), "x"),
        (lambda f, x: backward_integral_from_minus_infinity(f, x, 1.0), "x"),
        (lambda f, x: ftc_residuals(f, x, 2.0, 1.0), "a"),
        (lambda f, x: ftc_residuals(f, 0.0, x, 1.0), "b"),
        (lambda f, x: integration_by_parts_residual(f, f, x, 2.0, 1.0), "a"),
        (lambda f, x: integration_by_parts_residual(f, f, 0.0, x, 1.0), "b"),
    ],
    ids=["forward-a", "forward-b", "forward-strict", "backward", "symmetric", "antiderivative-a",
         "antiderivative-b", "forward_integral_to_infinity", "backward_integral_from_minus_infinity",
         "ftc-a", "ftc-b", "ibp-a", "ibp-b"],
)
def test_non_finite_endpoints_rejected_before_any_read(call, name, x):
    calls = []

    def f(t):
        calls.append(t)
        return 1.0 / (1.0 + t * t)

    with pytest.raises(ValueError) as err:
        call(f, x)
    assert str(err.value) == f"{name} must be finite, got {x!r}"
    assert calls == []


@pytest.mark.parametrize("mode", ["telescoped", None], ids=["string", "none"])
@pytest.mark.parametrize(
    "call",
    [
        lambda f, mode: forward_integral(f, 0.0, 2.0, 1.0, mode, SeriesConfig(tol=1e-6)),
        lambda f, mode: backward_integral(f, 0.0, 2.0, 1.0, mode),
        lambda f, mode: symmetric_integral(f, 0.0, 2.0, StepPair(1.0, 1.0), mode),
    ],
    ids=["forward", "backward", "symmetric"],
)
def test_a_mode_that_is_not_an_integral_mode_is_refused_before_any_read(call, mode):
    calls = []

    def f(t):
        calls.append(t)
        return 1.0

    with pytest.raises(ValueError) as err:
        call(f, mode)
    assert str(err.value) == f"mode must be an IntegralMode, got {mode!r}"
    assert calls == []


@pytest.mark.parametrize("cfg", [{"tol": 1e-6}, "x", 3], ids=["dict", "string", "int"])
@pytest.mark.parametrize(
    "call",
    [
        lambda f, cfg: forward_integral(f, 0.0, 2.0, 1.0, IntegralMode.TELESCOPED, cfg),
        lambda f, cfg: forward_integral(f, 0.0, 2.0, 1.0, IntegralMode.STRICT, cfg),
        lambda f, cfg: backward_integral(f, 0.0, 2.0, 1.0, IntegralMode.TELESCOPED, cfg),
        lambda f, cfg: backward_integral(f, 0.0, 2.0, 1.0, IntegralMode.STRICT, cfg),
        lambda f, cfg: symmetric_integral(f, 0.0, 2.0, StepPair(1.0, 1.0), IntegralMode.AUTO, cfg),
        lambda f, cfg: symmetric_integral(f, 0.0, 2.5, StepPair(1.0, 1.0), IntegralMode.AUTO, cfg),
        lambda f, cfg: forward_integral_to_infinity(f, 0.0, 1.0, cfg),
        lambda f, cfg: backward_integral_from_minus_infinity(f, 0.0, 1.0, cfg),
        lambda f, cfg: antiderivative(f, 0.0, 1.0, cfg),
        lambda f, cfg: ftc_residuals(f, 0.0, 2.0, 1.0, cfg),
        lambda f, cfg: integration_by_parts_residual(f, f, 0.0, 2.0, 1.0, cfg),
    ],
    ids=["forward-telescoped", "forward-strict", "backward-telescoped", "backward-strict",
         "symmetric-aligned", "symmetric-off-grid", "forward_integral_to_infinity",
         "backward_integral_from_minus_infinity", "antiderivative", "ftc", "ibp"],
)
def test_a_cfg_that_is_not_a_series_config_is_refused_before_any_read(call, cfg):
    calls = []

    def f(t):
        calls.append(t)
        return 1.0 / (1.0 + t * t)

    with pytest.raises(ValueError) as err:
        call(f, cfg)
    assert str(err.value) == f"cfg must be a SeriesConfig or None, got {cfg!r}"
    assert calls == []


@pytest.mark.parametrize(
    "call, point, message",
    [
        (lambda f: forward_integral(f, 0.0, 0.5, 1.0, IntegralMode.STRICT), 3.0,
         "the forward series term at t=3.0 is non-finite (inf)"),
        (lambda f: backward_integral(f, -0.5, 0.0, 1.0, IntegralMode.STRICT), -2.5,
         "the backward series term at t=-2.5 is non-finite (inf)"),
        (lambda f: forward_integral_to_infinity(f, 0.5, 1.0), 2.5,
         "the forward series term at t=2.5 is non-finite (inf)"),
        (lambda f: backward_integral_from_minus_infinity(f, 0.0, 0.5), -2.5,
         "the backward series term at t=-2.5 is non-finite (inf)"),
    ],
    ids=["forward-strict", "backward-strict", "forward_integral_to_infinity",
         "backward_integral_from_minus_infinity"],
)
def test_non_finite_series_term_names_its_point(call, point, message):
    from norlund import NonFiniteValueError

    f = lambda t: math.inf if abs(t) > 2 else 1 / (1 + t * t)  # noqa: E731
    with pytest.raises(NonFiniteValueError) as err:
        call(f)
    assert err.value.point == point
    assert err.value.value == math.inf
    assert str(err.value) == message


# 1e17 and the next float but one, 16 apart: a unit step cannot walk
# between them, since every a + k rounds onto a multiple of 16.
FINE_A, FINE_B = 1e17, 1.0000000000000002e17


@pytest.mark.parametrize(
    "run",
    [
        lambda f: forward_integral(f, FINE_A, FINE_B, 1.0),
        lambda f: backward_integral(f, FINE_A, FINE_B, 1.0),
        lambda f: forward_integral(f, FINE_B, FINE_A, 1.0, IntegralMode.TELESCOPED),
        lambda f: symmetric_integral(f, FINE_A, FINE_B, StepPair(1.0, 16.0)),
        lambda f: ftc_residuals(f, FINE_A, FINE_B, 1.0),
        lambda f: integration_by_parts_residual(f, f, FINE_A, FINE_B, 1.0),
    ],
    ids=["forward", "backward", "reversed", "symmetric", "ftc", "ibp"],
)
def test_grid_step_below_the_endpoints_resolution_is_a_zero_step(run):
    calls = []

    def f(t):
        calls.append(t)
        return t

    with pytest.raises(ZeroStepError, match="below the endpoints' resolution"):
        run(f)
    assert calls == []


def test_sub_resolution_step_leaves_strict_route_and_empty_interval_alone():
    strict = forward_integral(lambda t: 0.0, FINE_A, FINE_B, 1.0, IntegralMode.STRICT)
    assert strict.value == 0.0
    assert forward_integral(lambda t: t, FINE_A, FINE_A, 1.0).value == 0.0
    assert backward_integral(lambda t: t, FINE_A, FINE_A, 1.0).value == 0.0
    # a step of one ulp walks the same endpoints exactly
    assert forward_integral(lambda t: 1.0, FINE_A, FINE_B, 16.0).value == 16.0


# ----------------------------------------------------------------------
# Backward integral
# ----------------------------------------------------------------------


def test_backward_integral_telescoped_is_exact():
    r = backward_integral(INV_SQUARE, 1.0, 3.0, 2.0)
    assert r.value == 2.0 / 9.0
    assert r.mode_used is IntegralMode.TELESCOPED


def test_backward_integral_constant_modes_disagree_by_design():
    tel = backward_integral(lambda t: 1.0, 1.0, 3.0, 2.0, IntegralMode.TELESCOPED)
    assert tel.value == 2.0
    with pytest.raises(NotIntegrableError):
        backward_integral(lambda t: 1.0, 1.0, 3.0, 2.0, IntegralMode.STRICT)


def test_backward_integral_of_zero():
    assert backward_integral(lambda t: 0.0, -4.0, 2.0, 1.5).value == 0.0


def test_backward_integral_strict_agrees_with_telescoped():
    cfg = SeriesConfig(tol=1e-6)
    strict = backward_integral(INV_SQUARE, 1.0, 3.0, 2.0, IntegralMode.STRICT, cfg)
    assert abs(strict.value - 2.0 / 9.0) <= 1e-9


# ----------------------------------------------------------------------
# The strict route: each endpoint series read until it is shown
# convergent, then the grid's finite sum or the difference series
# ----------------------------------------------------------------------


def _recorded(f):
    points = []

    def recorded(t):
        points.append(t)
        return f(t)

    return recorded, points


# Reads of f at most, off the grid: both endpoint series settle at 4,112
# terms, and the difference series reads two points a term.
OFF_GRID_READS = {1e-4: 9_000, 1e-6: 12_500, 1e-7: 21_000, 1e-9: 130_000}


@pytest.mark.parametrize("tol", list(OFF_GRID_READS))
@pytest.mark.parametrize("far", [4.75, 4.3], ids=["off-grid", "on-grid"])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_strict_side_of_a_telescoping_integrand_is_within_tol(direction, far, tol):
    # h/(t(t+h)) = 1/t - 1/(t+h), so the forward series at x sums to 1/x
    # and the side to 1/a - 1/b; 1/(t(t-h)) mirrors it on negative t.
    cfg, h = SeriesConfig(tol=tol), 1.0
    if direction == "forward":
        a, b = 1.3, far
        f, reads = _recorded(lambda t: 1.0 / (t * (t + h)))
        integral = forward_integral
    else:
        a, b = -far, -1.3
        f, reads = _recorded(lambda t: 1.0 / (t * (t - h)))
        integral = backward_integral
    r = integral(f, a, b, h, IntegralMode.STRICT, cfg)
    assert abs(r.value - (1.0 / a - 1.0 / b)) <= tol
    diag = r.forward_diag if direction == "forward" else r.backward_diag
    assert [(s.verdict, s.terms_used) for s in diag] == [(Verdict.SETTLED, 4112)] * 2
    if far == 4.3:  # the grid's three points, read once more
        assert len(reads) == 2 * 4112 + 3
    else:
        assert len(reads) <= OFF_GRID_READS[tol]
    assert integral(f, b, a, h, IntegralMode.STRICT, cfg).value == -r.value


@pytest.mark.parametrize("x", [1e5, 1e6, -1e6 - 1.0])
def test_series_at_a_point_far_from_zero_stops_after_a_few_terms(x):
    # 1/t^2 from x on is a power law whose offset x is large beside k: the
    # tail fits the offset with the exponent, so it reads about 1/|x|,
    # within tol at once, and the sum is within tol of 1/(x - 1/2).
    cfg = SeriesConfig(tol=1e-4)
    f, reads = _recorded(lambda t: t**-2)
    integral = forward_integral_to_infinity if x > 0 else backward_integral_from_minus_infinity
    s = integral(f, x, 1.0, cfg)
    assert s.verdict is Verdict.CONVERGED and len(reads) == s.terms_used <= 300
    assert abs(s.value - 1.0 / (abs(x) - 0.5)) <= cfg.tol
    assert 0.5 / abs(x) <= s.tail_estimate <= cfg.tol
    r = forward_integral(f, 1e5, 1e5 + 2.5, 1.0, IntegralMode.STRICT, cfg)
    assert [s.verdict for s in r.forward_diag] == [Verdict.CONVERGED] * 2
    assert abs(r.value - (1.0 / (1e5 - 0.5) - 1.0 / (1e5 + 2.0))) <= cfg.tol
    assert sum(s.terms_used for s in r.forward_diag) <= 600


def test_strict_side_whose_endpoint_series_converge_is_their_difference():
    cfg = SeriesConfig(tol=1e-12)
    r = forward_integral(HALVING, 0.0, 1.5, 1.0, IntegralMode.STRICT, cfg)
    s_a, s_b = r.forward_diag
    assert s_a.verdict is s_b.verdict is Verdict.CONVERGED
    assert r.value == s_a.value - s_b.value
    assert abs(r.value - 2.0 * (1.0 - 2.0**-1.5)) <= 2e-12


def test_strict_constant_is_divergent_at_a_before_b_is_read():
    f, reads = _recorded(lambda t: 1.0)
    with pytest.raises(NotIntegrableError, match="at endpoint 0.5 did not converge: verdict "
                                                 "divergent after 1072 terms"):
        forward_integral(f, 0.5, 3.25, 1.0, IntegralMode.STRICT)
    assert reads == [0.5 + k for k in range(1072)]


def test_strict_reciprocal_is_divergent_after_the_condensation_check():
    with pytest.raises(NotIntegrableError, match="verdict divergent after 4112 terms"):
        forward_integral(lambda t: 1.0 / t, 1.0, 2.5, 1.0, IntegralMode.STRICT,
                         SeriesConfig(tol=1e-6))


@pytest.mark.parametrize(
    "f",
    [lambda t: 1.0 / (t * math.log(t)), lambda t: math.exp(-t / 1000.0) + 1.0 / t],
    ids=["t_ln_t", "exp_then_reciprocal"],
)
def test_strict_side_of_a_slowly_divergent_integrand_is_not_integrable(f):
    # neither endpoint series settles, though the difference series of each converges
    with pytest.raises(NotIntegrableError, match="at endpoint 2.0 did not converge"):
        forward_integral(f, 2.0, 3.5, 1.0, IntegralMode.STRICT,
                         SeriesConfig(tol=1e-6, max_terms=2**17))


def test_aligned_strict_side_with_a_grid_beyond_max_terms_sums_the_difference_series():
    # f falls like t^-2 up to t = 5000 and geometrically after, so the series
    # at a settles, the one at b converges, and the difference series
    # converges just past t = 5000, before the 7,000-point grid ends.
    f = lambda t: math.exp(-max(0.0, t - 5000.0)) / t**2  # noqa: E731
    cfg = SeriesConfig(tol=1e-4, max_terms=6000)
    r = forward_integral(f, 1.0, 7001.0, 1.0, IntegralMode.STRICT, cfg)
    assert [s.verdict for s in r.forward_diag] == [Verdict.SETTLED, Verdict.CONVERGED]
    assert abs(r.value - math.fsum(f(1.0 + k) for k in range(7000))) <= cfg.tol


def test_strict_difference_series_that_does_not_converge_names_the_side():
    # Both endpoint series settle at 4,112 terms; the difference series,
    # whose tail falls like 1/k^2, cannot reach tol within the cap.
    cfg = SeriesConfig(tol=1e-9, max_terms=5000)
    f = lambda t: 1.0 / (t * (t + 1.0))  # noqa: E731
    message = r"^forward difference series from 1.3 to 4.75 did not converge: verdict " \
              r"truncation_limit after 5000 terms"
    with pytest.raises(NotIntegrableError, match=message):
        forward_integral(f, 1.3, 4.75, 1.0, IntegralMode.STRICT, cfg)


@pytest.mark.parametrize("far_point", [6001.3, 6004.75], ids=["a-grid", "b-grid"])
def test_strict_difference_series_names_the_point_of_a_non_finite_term(far_point):
    # Past both endpoint series' 4,112 terms, f is infinite at one point
    # that only the difference series reads, as f(a + k) or as f(b + k).
    def f(t):
        return math.inf if t == far_point else 1.0 / (t * (t + 1.0))

    with pytest.raises(NonFiniteValueError) as err:
        forward_integral(f, 1.3, 4.75, 1.0, IntegralMode.STRICT, SeriesConfig(tol=1e-9))
    assert err.value.point == far_point
    assert str(err.value) == f"function value at t={far_point!r} is non-finite (inf)"


def test_strict_difference_series_that_overflows_names_the_point_at_a():
    # f is finite at both points of term 5,000, but their difference is
    # not; the error names a's point, and f is read there once.
    def f(t):
        return 1e308 if t == 5001.3 else -1e308 if t == 5004.75 else 1.0 / (t * (t + 1.0))

    f, reads = _recorded(f)
    with pytest.raises(NonFiniteValueError) as err:
        forward_integral(f, 1.3, 4.75, 1.0, IntegralMode.STRICT, SeriesConfig(tol=1e-9))
    assert err.value.point == 5001.3
    assert str(err.value) == "the forward series term at t=5001.3 is non-finite (inf)"
    assert reads.count(5001.3) == 1 and reads[-2:] == [5001.3, 5004.75]


# ----------------------------------------------------------------------
# Symmetric integral
# ----------------------------------------------------------------------


def test_symmetric_integral_reference_value():
    r = symmetric_integral(INV_SQUARE, 1.0, 3.0, StepPair(2.0, 2.0))
    assert abs(r.value - 10.0 / 9.0) <= 1e-15


def test_symmetric_integral_strict_reference_value():
    r = symmetric_integral(
        INV_SQUARE, 1.0, 3.0, StepPair(2.0, 2.0), IntegralMode.STRICT, SeriesConfig(tol=1e-6)
    )
    assert r.mode_used is IntegralMode.STRICT
    assert abs(r.value - 10.0 / 9.0) <= 1e-9


def test_symmetric_with_zero_beta_is_identical_to_forward():
    f = lambda t: 0.3 * t * t + 1.0
    fwd = forward_integral(f, 0.5, 2.5, 0.4)
    sym = symmetric_integral(f, 0.5, 2.5, StepPair(0.4, 0.0))
    assert sym.value == fwd.value
    assert sym.mode_used is fwd.mode_used


def test_symmetric_with_zero_alpha_is_identical_to_backward():
    f = lambda t: 0.3 * t * t + 1.0
    bwd = backward_integral(f, 0.5, 2.5, 0.4)
    sym = symmetric_integral(f, 0.5, 2.5, StepPair(0.0, 0.4))
    assert sym.value == bwd.value


def test_symmetric_zero_step_side_never_evaluated_off_interval():
    # With beta = 0 no backward grid exists, so a function undefined
    # below a must not be probed there.
    def guarded(t):
        assert t >= 0.0, "zero-weighted side was evaluated"
        return 2.0**-t

    r = symmetric_integral(guarded, 0.0, 3.0, StepPair(1.0, 0.0))
    assert r.value == forward_sum_oracle(guarded, 0.0, 3, 1.0)


def test_symmetric_average_of_sides():
    r = symmetric_integral(HALVING, 0.0, 1.0, StepPair(1.0, 1.0))
    assert r.value == 0.75
    assert not r.mixed_modes


def test_symmetric_auto_can_mix_modes():
    # forward side aligned, backward side not; pole function is
    # strictly summable in both directions
    f = lambda t: 1.0 / ((t - 11.3) * (t - 11.3))
    r = symmetric_integral(
        f, 0.0, 1.0, StepPair(1.0, 0.4), IntegralMode.AUTO, SeriesConfig(tol=1e-4)
    )
    assert r.mixed_modes
    assert r.mode_used is IntegralMode.STRICT  # the stricter of the two
    assert r.backward_diag is not None
    assert r.alignment is not None  # forward side witness


def test_symmetric_not_integrable_from_either_side():
    with pytest.raises(NotIntegrableError):
        symmetric_integral(lambda t: 1.0, 0.0, 1.0, StepPair(1.0, 1.0), IntegralMode.STRICT)


# ----------------------------------------------------------------------
# Antiderivative and the fundamental identities
# ----------------------------------------------------------------------


def test_antiderivative_vanishes_at_anchor():
    F = antiderivative(HALVING, 0.0, 1.0)
    assert F(0.0) == 0.0


def test_antiderivative_reference_values():
    F = antiderivative(HALVING, 0.0, 1.0)
    assert F(2.0) == 1.5
    G = antiderivative(INV_SQUARE, 1.0, 2.0)
    assert G(3.0) == 2.0


def test_ftc_residuals_examples():
    r1, r2 = ftc_residuals(INV_SQUARE, 1.0, 5.0, 2.0)
    assert r1 <= 1e-10 and r2 <= 1e-10
    r1, r2 = ftc_residuals(lambda t: 0.0, 0.0, 4.0, 1.0)
    assert (r1, r2) == (0.0, 0.0)
    r1, r2 = ftc_residuals(HALVING, 0.0, 3.0, 1.0)
    assert r1 <= 1e-9 and r2 <= 1e-9


def test_ftc_residuals_requires_ordered_endpoints():
    with pytest.raises(ValueError):
        ftc_residuals(HALVING, 3.0, 0.0, 1.0)


def test_ftc_residuals_unaligned_strict_integrable():
    # b off the grid: the accumulated integral goes strict at b while
    # the sampled grid points stay telescoped
    r1, r2 = ftc_residuals(HALVING, 0.0, 2.5, 1.0)
    assert r1 <= 1e-9 and r2 <= 1e-9


def _ftc_r1_reference(f, a, alpha, k1):
    """r1 the slow way: each accumulated value alpha * (f(a) + ... +
    f(a + (k-1)*alpha)) summed from scratch, left to right."""

    def accumulated(k):
        total = 0.0
        for j in range(k):
            total += f(a + j * alpha)
        return alpha * total

    return max(
        abs((accumulated(k + 1) - accumulated(k)) / alpha - f(a + k * alpha))
        for k in range(k1 + 1)
    )


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=0.1, max_value=4.0),
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_ftc_r1_matches_quadratic_reference(a, alpha, k1, frac, c):
    # 2^-t keeps the strict r2 integral at the off-grid b cheap
    f = lambda t: (c + 0.3 * t * t) * 2.0**-t
    b = a + (k1 + frac) * alpha
    r1, _ = ftc_residuals(f, a, b, alpha)
    assert r1.hex() == _ftc_r1_reference(f, a, alpha, k1).hex()


def test_ftc_reads_f_once_per_grid_point_in_r1():
    calls = [0]

    def counted(t):
        calls[0] += 1
        return 0.3 * t * t + 1.0

    k1 = 200
    r1, _ = ftc_residuals(counted, 0.0, float(k1), 1.0)
    assert r1.hex() == _ftc_r1_reference(lambda t: 0.3 * t * t + 1.0, 0.0, 1.0, k1).hex()
    # r1 reads f at k1 + 1 points, r2 twice per grid point plus f(a), f(b)
    assert calls[0] <= 3 * (k1 + 1) + 2


def test_ftc_non_finite_values_raise_where_they_arise():
    from norlund import NonFiniteValueError

    with pytest.raises(NonFiniteValueError) as err:
        ftc_residuals(lambda t: math.nan if t == 2.0 else 1.0, 0.0, 4.0, 1.0)
    assert err.value.point == 2.0
    # finite values whose running sum overflows at the point one step ahead
    with pytest.raises(NonFiniteValueError) as err:
        ftc_residuals(lambda t: 1e308, 0.0, 4.0, 1.0)
    assert err.value.point == 2.0


def test_strict_ibp_term_with_a_step_below_t_resolution_raises():
    # 1e17 + 16 is off the grid of step 3, so both integrals go strict, and
    # the first term's forward difference cannot move t = 1e17 (ulp 16).
    message = r"^forward step 3.0 does not move t=1e\+17: it is below t's resolution$"
    with pytest.raises(ZeroStepError, match=message):
        integration_by_parts_residual(lambda t: 1.0, lambda t: 2.0, 1e17, 1e17 + 16, 3.0)


def test_integration_by_parts_hand_case():
    # f = g = t on [0, 2], step 1: both sides equal 1 exactly
    assert integration_by_parts_residual(lambda t: t, lambda t: t, 0.0, 2.0, 1.0) <= 1e-12


def test_integration_by_parts_zero_function():
    assert integration_by_parts_residual(lambda t: 0.0, lambda t: t * t, 0.0, 3.0, 1.0) == 0.0


def test_integration_by_parts_boundary_term_that_overflows_raises():
    from norlund import NonFiniteValueError

    # f*g is 1e400 at both ends: inf - inf is NaN, where both sides are 0.
    with pytest.raises(NonFiniteValueError) as err:
        integration_by_parts_residual(lambda t: 1e200, lambda t: 1e200, 0.0, 1.0, 0.5)
    assert err.value.point == 1.0 and math.isnan(err.value.value)
    assert str(err.value) == (
        "the boundary term f(b)*g(b) - f(a)*g(a) from 0.0 to 1.0 overflowed (nan)"
    )


def test_integration_by_parts_geometric_case():
    # both sides telescope to 1.875 for f = 2^-t, g = t on [0, 4]
    f, g = HALVING, lambda t: t
    residual = integration_by_parts_residual(f, g, 0.0, 4.0, 1.0)
    assert residual <= 1e-9
    lhs = forward_sum_oracle(lambda t: f(t) * (g(t + 1.0) - g(t)), 0.0, 4, 1.0)
    rhs = f(4.0) * g(4.0) - f(0.0) * g(0.0) - forward_sum_oracle(
        lambda t: (f(t + 1.0) - f(t)) * g(t + 1.0), 0.0, 4, 1.0
    )
    assert abs(lhs - rhs) <= 1e-12  # identity verified by the oracle too


# ----------------------------------------------------------------------
# Zero extension
# ----------------------------------------------------------------------


def test_zero_extension_makes_bounded_support_summable():
    ext = zero_extension(lambda t: 1.0, 0.0, 1.0)
    r = forward_integral_to_infinity(ext, 0.0, 1.0)
    assert r.value == 2.0  # grid points 0 and 1 survive
    assert r.verdict is Verdict.CONVERGED


def test_zero_extension_outside_and_degenerate():
    ext = zero_extension(lambda t: t + 10.0, -1.0, 1.0)
    assert ext(2.0) == 0.0 and ext(-5.0) == 0.0 and ext(0.5) == 10.5
    point = zero_extension(lambda t: t + 10.0, 3.0, 3.0)
    assert point(3.0) == 13.0 and point(2.9) == 0.0 and point(3.1) == 0.0
    half = zero_extension(lambda t: 1.0, 0.0, None)
    assert half(-0.1) == 0.0 and half(1e9) == 1.0
    with pytest.raises(ValueError):
        zero_extension(lambda t: t, 2.0, 1.0)


def test_zero_extension_refuses_a_nan_bound_and_takes_an_infinite_one():
    for lo, hi, name in ((math.nan, 1.0, "lo"), (0.0, math.nan, "hi"), (math.nan, None, "lo")):
        with pytest.raises(ValueError) as err:
            zero_extension(lambda t: t, lo, hi)
        assert str(err.value) == f"{name} must not be NaN, got nan"
    half = zero_extension(lambda t: t, -math.inf, 1.0)
    assert half(-5.0) == -5.0 and half(2.0) == 0.0
    half = zero_extension(lambda t: t, 0.0, math.inf)
    assert half(-5.0) == 0.0 and half(1e308) == 1e308


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_antiderivative_refuses_a_non_finite_anchor_when_built(a):
    with pytest.raises(ValueError) as err:
        antiderivative(lambda t: t, a, 1.0)
    assert str(err.value) == f"a must be finite, got {a!r}"


# ----------------------------------------------------------------------
# Algebraic properties on the randomized family
# ----------------------------------------------------------------------


def test_linearity_and_additivity_and_antisymmetry():
    rng = random.Random(20260810)
    for _ in range(25):
        iv = draw_symmetric_interval(rng)
        steps = StepPair(iv.alpha, iv.beta)
        f = draw_decay_function(rng, iv)
        g = draw_decay_function(rng, iv)
        c = rng.uniform(-3.0, 3.0)

        If = symmetric_integral(f, iv.a, iv.b, steps).value
        Ig = symmetric_integral(g, iv.a, iv.b, steps).value
        combined = symmetric_integral(
            lambda t: f(t) + c * g(t), iv.a, iv.b, steps
        ).value
        scale = max(1.0, abs(If), abs(Ig), abs(combined))
        assert abs(combined - (If + c * Ig)) <= 1e-10 * scale

        # antisymmetry under endpoint swap
        assert symmetric_integral(f, iv.b, iv.a, steps).value == -If

        # zero on empty intervals and for the zero function
        assert symmetric_integral(f, iv.a, iv.a, steps).value == 0.0
        assert symmetric_integral(lambda t: 0.0, iv.a, iv.b, steps).value == 0.0


def test_interval_additivity_through_aligned_midpoint():
    rng = random.Random(4621)
    for _ in range(25):
        length = rng.uniform(2.0, 6.0)
        n = rng.randint(2, 12)
        step = length / n
        a = rng.uniform(-3.0, 3.0)
        b = a + n * step
        j = rng.randint(1, n - 1)
        c = a + j * step
        iv_steps = StepPair(step, step)
        f = draw_decay_function(
            rng, draw_symmetric_interval(rng)
        )  # pole placement relative to another grid is irrelevant here
        whole = symmetric_integral(f, a, b, iv_steps).value
        left = symmetric_integral(f, a, c, iv_steps).value
        right = symmetric_integral(f, c, b, iv_steps).value
        scale = max(1.0, abs(whole), abs(left), abs(right))
        assert abs(whole - (left + right)) <= 1e-10 * scale


def test_strict_telescoped_agreement_sample():
    rng = random.Random(777)
    cfg = SeriesConfig(tol=1e-3)
    for _ in range(5):
        iv = draw_symmetric_interval(rng)
        steps = StepPair(iv.alpha, iv.beta)
        f = draw_pole_pair_function(rng, iv)
        tel = symmetric_integral(f, iv.a, iv.b, steps, IntegralMode.TELESCOPED)
        strict = symmetric_integral(f, iv.a, iv.b, steps, IntegralMode.STRICT, cfg)
        tails = sum(s.tail_estimate for s in strict.forward_diag)
        tails += sum(s.tail_estimate for s in strict.backward_diag)
        assert abs(strict.value - tel.value) <= tails + 1e-10 * abs(tel.value)


def test_h_calculus_reduction_bit_identical():
    rng = random.Random(31337)
    for _ in range(10):
        iv = draw_forward_interval(rng)
        f = draw_decay_function(rng, iv)
        n = iv.k_forward
        direct = iv.alpha * sum(f(iv.a + k * iv.alpha) for k in range(n))
        r = symmetric_integral(f, iv.a, iv.b, StepPair(iv.alpha, 0.0))
        assert r.value == direct


def test_comparison_bound_on_family():
    rng = random.Random(999)
    for _ in range(10):
        iv = draw_symmetric_interval(rng)
        steps = StepPair(iv.alpha, iv.beta)
        f = draw_decay_function(rng, iv)
        h = draw_decay_function(rng, iv, nonneg=True)
        g = lambda t: abs(f(t)) + h(t)  # dominates |f| everywhere
        If = symmetric_integral(f, iv.a, iv.b, steps).value
        Ig = symmetric_integral(g, iv.a, iv.b, steps).value
        scale = max(1.0, abs(If), abs(Ig))
        assert abs(If) <= Ig + 1e-10 * scale


def test_oracle_agreement_on_family():
    rng = random.Random(123321)
    for _ in range(20):
        iv = draw_symmetric_interval(rng)
        f = draw_decay_function(rng, iv)
        got = symmetric_integral(f, iv.a, iv.b, StepPair(iv.alpha, iv.beta)).value
        want = symmetric_oracle(f, iv.a, iv.b, iv.alpha, iv.beta)
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)
