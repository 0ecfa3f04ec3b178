import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norlund import (
    EPS_GRID,
    GridDirection,
    NonFiniteValueError,
    StepPair,
    ZeroStepError,
    backward_difference,
    forward_difference,
    grid_align,
    symmetric_difference,
)
from norlund import GridBudgetError, SeriesConfig
from norlund.operators import grid_count, grid_points


def test_forward_difference_examples():
    assert forward_difference(lambda t: 7.0, 3.5, 0.25) == 0.0
    assert forward_difference(lambda t: t * t, 2.0, 1.0) == 5.0
    assert forward_difference(lambda t: 2.0**t, 0.0, 1.0) == 1.0


def test_backward_difference_examples():
    assert backward_difference(lambda t: 7.0, 3.5, 0.25) == 0.0
    assert backward_difference(lambda t: t * t, 2.0, 1.0) == 3.0
    assert backward_difference(abs, 0.0, 2.0) == -1.0


def test_symmetric_difference_examples():
    # |t| at 0 has symmetric quotient zero for any equal steps
    for h in (0.5, 1.0, 2.0):
        assert symmetric_difference(abs, 0.0, StepPair(h, h)) == 0.0
    assert symmetric_difference(lambda t: 5.0, 1.0, StepPair(2.0, 1.0)) == 0.0
    assert symmetric_difference(lambda t: t * t, 1.0, StepPair(2.0, 1.0)) == 3.0


def test_symmetric_reduces_to_one_sided():
    f = lambda t: t**3 - 2.0 * t
    assert symmetric_difference(f, 1.5, StepPair(0.5, 0.0)) == forward_difference(f, 1.5, 0.5)
    assert symmetric_difference(f, 1.5, StepPair(0.0, 0.5)) == backward_difference(f, 1.5, 0.5)
    # A zero step reads t itself: at t = -0.0 it must not read f(0.0).
    sign = lambda t: math.copysign(1.0, t)
    backward, forward = backward_difference(sign, -0.0, 1.0), forward_difference(sign, -0.0, 1.0)
    assert (backward, forward) == (0.0, 2.0)
    assert symmetric_difference(sign, -0.0, StepPair(0.0, 1.0)) == backward
    assert symmetric_difference(sign, -0.0, StepPair(1.0, 0.0)) == forward


def test_forward_equals_shifted_backward_exactly():
    f = lambda t: math.sin(t) + t * t
    for t, step in ((0.0, 1.0), (-2.5, 0.3), (4.0, 2.0)):
        assert forward_difference(f, t, step) == backward_difference(f, t + step, step)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=0.1, max_value=3.0),
)
def test_symmetric_is_weighted_mix_of_one_sided(t, alpha, beta):
    f = lambda x: 0.5**x + x * x
    sym = symmetric_difference(f, t, StepPair(alpha, beta))
    fwd = forward_difference(f, t, alpha)
    bwd = backward_difference(f, t, beta)
    mix = (alpha * fwd + beta * bwd) / (alpha + beta)
    scale = (abs(f(t + alpha)) + abs(f(t)) + abs(f(t - beta))) / (alpha + beta)
    assert abs(sym - mix) <= 4.0 * sys.float_info.epsilon * max(1.0, scale)


def test_zero_step_rejected():
    with pytest.raises(ZeroStepError):
        forward_difference(lambda t: t, 0.0, 0.0)
    with pytest.raises(ZeroStepError):
        backward_difference(lambda t: t, 0.0, -1.0)


def test_step_below_the_resolution_of_t_rejected():
    f = lambda t: t
    with pytest.raises(ZeroStepError, match=r"forward step 5e-324 does not move t=1\.0"):
        forward_difference(f, 1.0, 5e-324)
    with pytest.raises(ZeroStepError, match=r"backward step 1\.0 does not move t=1e\+17"):
        backward_difference(f, 1e17, 1.0)
    with pytest.raises(ZeroStepError, match="forward step"):
        symmetric_difference(f, 1e17, StepPair(1.0, 4.0))
    with pytest.raises(ZeroStepError, match="backward step"):
        symmetric_difference(f, 1.0, StepPair(1.0, 1e-17))
    # 1 + 1e-16 rounds to 1 but 1 - 1e-16 does not: each side is judged alone
    assert backward_difference(f, 1.0, 1e-16) == (1.0 - (1.0 - 1e-16)) / 1e-16
    with pytest.raises(ZeroStepError):
        forward_difference(f, 1.0, 1e-16)


def test_zero_side_of_symmetric_difference_still_allowed():
    f = lambda t: t * t
    assert symmetric_difference(f, 1e17, StepPair(0.0, 1e3)) == backward_difference(f, 1e17, 1e3)
    assert symmetric_difference(f, 1.0, StepPair(0.0, 0.5)) == 1.5


def test_non_finite_value_rejected():
    with pytest.raises(NonFiniteValueError):
        forward_difference(lambda t: math.inf, 0.0, 1.0)
    with pytest.raises(NonFiniteValueError):
        symmetric_difference(lambda t: math.nan, 0.0, StepPair(1.0, 1.0))


def test_a_quotient_whose_difference_or_step_sum_overflows_is_taken_from_halves():
    # alpha + beta is inf, and so is t + alpha - (t - beta).
    assert symmetric_difference(lambda t: t, 0.0, StepPair(1e308, 1e308)) == 1.0
    f = lambda t: 1.7e308 * math.sin(t)
    assert forward_difference(f, 1.5707963, 3.14159) == (
        f(1.5707963 + 3.14159) / 2 - f(1.5707963) / 2) / (3.14159 / 2)
    # A quotient that overflows in exact arithmetic too stays infinite.
    g = lambda t: 1.7e308 * math.sin(1000 * t)
    assert forward_difference(g, 0.0015707963, 0.0031415926) == -math.inf
    sign = lambda t: math.copysign(1.0, t)
    assert symmetric_difference(sign, 0.0, StepPair(5e-324, 5e-324)) == math.inf


def test_step_pair_validation():
    assert StepPair(2.0, 0.0).alpha == 2.0
    with pytest.raises(ValueError):
        StepPair(0.0, 0.0)
    with pytest.raises(ValueError):
        StepPair(-1.0, 2.0)
    with pytest.raises(ValueError):
        StepPair(math.inf, 1.0)


def test_grid_align_examples():
    hit = grid_align(1.0, 3.0, 2.0)
    assert hit is not None and hit.k1 == 1 and hit.residual == 0.0
    trivial = grid_align(0.0, 0.0, 0.7)
    assert trivial is not None and trivial.k1 == 0
    assert grid_align(0.0, 1.0, 0.3) is None


def test_grid_align_rejects_points_behind_anchor():
    assert grid_align(0.0, -2.0, 1.0) is None
    assert grid_align(0.0, 2.0, 1.0, GridDirection.BACKWARD) is None
    hit = grid_align(3.0, 1.0, 2.0, GridDirection.BACKWARD)
    assert hit is not None and hit.k1 == 1


def test_grid_align_zero_step_rejected():
    with pytest.raises(ZeroStepError):
        grid_align(0.0, 1.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=1e-3, max_value=10.0),
)
def test_grid_align_recovers_exact_step_counts(k, anchor, step):
    hit = grid_align(anchor, anchor + k * step, step)
    assert hit is not None
    assert hit.k1 == k
    assert abs(hit.residual) <= EPS_GRID


def test_grid_count_forward_and_backward():
    fwd, bwd = GridDirection.FORWARD, GridDirection.BACKWARD
    # aligned target: the witness's k1, even just below the grid point
    assert grid_count(1.0, 7.0, 2.0, fwd) == 3
    assert grid_count(0.0, 3.0 - 1e-12, 1.0, fwd) == 3
    assert grid_count(7.0, 1.0, 2.0, bwd) == 3
    assert grid_count(3.0 + 1e-12, 0.0, 1.0, bwd) == 3
    # off-grid target: the floor of the span
    assert grid_count(1.0, 8.0, 2.0, fwd) == 3
    assert grid_count(8.0, 1.0, 2.0, bwd) == 3
    # target behind the anchor: 0
    assert grid_count(1.0, -3.5, 2.0, fwd) == 0
    assert grid_count(1.0, 5.5, 2.0, bwd) == 0
    assert grid_count(2.0, 2.0, 0.5) == 0
    with pytest.raises(ZeroStepError):
        grid_count(0.0, 1.0, 0.0)


def test_grid_points_walk_from_the_anchor():
    fwd, bwd = GridDirection.FORWARD, GridDirection.BACKWARD
    assert grid_points(1.0, 7.0, 2.0, fwd, 3) == [1.0, 3.0, 5.0]
    assert grid_points(7.0, 1.0, 2.0, bwd, 4) == [7.0, 5.0, 3.0, 1.0]
    assert grid_points(0.1, 1.0, 0.1, fwd, 4) == [0.1 + k * 0.1 for k in range(4)]
    assert grid_points(1.0, 0.1, 0.3, bwd, 4) == [1.0 - k * 0.3 for k in range(4)]
    assert grid_points(2.0, 2.0, 0.5, fwd, 0) == []


def test_grid_points_budget_comes_before_any_other_rule():
    cfg = SeriesConfig(max_terms=50)
    with pytest.raises(GridBudgetError, match="has 51 points, more than the term cap max_terms=50"):
        grid_points(0.0, 50.0, 1.0, GridDirection.FORWARD, 51, cfg)
    assert len(grid_points(0.0, 50.0, 1.0, GridDirection.FORWARD, 50, cfg)) == 50
    # the budget, not the resolution rule, refuses a walk too long to count
    with pytest.raises(GridBudgetError):
        grid_points(0.0, 1e300, 1.0, GridDirection.FORWARD, round(1e300))


@pytest.mark.parametrize(
    "anchor, target, step, direction",
    [
        (1e17, 1.0000000000000002e17, 1.0, GridDirection.FORWARD),
        (1.0000000000000002e17, 1e17, 8.0, GridDirection.BACKWARD),
        (1.0, 1.0 + 2**-50, 2**-53, GridDirection.FORWARD),
        (-1e17, -1.0000000000000002e17, 15.999, GridDirection.BACKWARD),
    ],
)
def test_grid_points_refuse_a_step_below_the_endpoints_resolution(anchor, target, step, direction):
    with pytest.raises(ZeroStepError, match="below the endpoints' resolution"):
        grid_points(anchor, target, step, direction, 2)


def test_grid_points_accept_a_step_of_one_ulp():
    ulp = math.ulp(1e17)
    points = grid_points(1e17, 1e17 + 2 * ulp, ulp, GridDirection.FORWARD, 3)
    assert points == [1e17, 1e17 + ulp, 1e17 + 2 * ulp]
    assert len(set(points)) == 3
    # an empty interval walks nowhere, whatever the step
    assert grid_points(1e17, 1e17, 1.0, GridDirection.FORWARD, 1) == [1e17]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: forward_difference(math.sin, 0.0, 0.0), "forward step must be positive, got 0.0"),
        (lambda: backward_difference(math.sin, 0.0, -1.0),
         "backward step must be positive, got -1.0"),
        (lambda: grid_align(0.0, 1.0, -0.5), "grid step must be positive, got -0.5"),
    ],
)
def test_non_positive_steps_keep_their_messages(call, message):
    with pytest.raises(ZeroStepError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("step", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda f, step: forward_difference(f, 0.0, step), "forward step"),
        (lambda f, step: backward_difference(f, 0.0, step), "backward step"),
        (lambda f, step: grid_align(0.0, 1.0, step), "grid step"),
        (lambda f, step: grid_count(0.0, 1.0, step), "grid step"),
        (lambda f, step: grid_points(0.0, 1.0, step, GridDirection.FORWARD, 1), "grid step"),
    ],
    ids=["forward_difference", "backward_difference", "grid_align", "grid_count", "grid_points"],
)
def test_non_finite_steps_rejected_before_any_read(call, name, step):
    # symmetric_difference takes a StepPair, which refuses them itself
    calls = []

    def f(t):
        calls.append(t)
        return t

    with pytest.raises(ValueError) as err:
        call(f, step)
    assert str(err.value) == f"{name} must be finite, got {step!r}"
    assert calls == []
