import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from norlund import NonFiniteTermError, SeriesConfig, Verdict, series, sum_series


def test_zero_series_converges_within_warmup():
    r = sum_series(lambda k: 0.0)
    assert r.value == 0.0
    assert r.verdict is Verdict.CONVERGED
    assert r.terms_used <= series._WARMUP


def test_geometric_half_matches_closed_form():
    r = sum_series(lambda k: 0.5**k, SeriesConfig(tol=1e-12))
    assert r.verdict is Verdict.CONVERGED
    assert abs(r.value - 2.0) <= 1e-12
    assert r.tail_estimate <= 1e-12


def test_constant_terms_are_divergent():
    r = sum_series(lambda k: 1.0, SeriesConfig(max_terms=10**6))
    assert r.verdict is Verdict.DIVERGENT
    assert r.terms_used < 5_000  # detected long before the cap


def test_odd_reciprocal_squares_against_closed_form():
    # pi^2/8 = sum 1/(1+2k)^2; the tail estimate underreports roughly 2x
    # for polynomial decay, so allow that factor over the tolerance.
    r = sum_series(lambda k: 1.0 / (1.0 + 2.0 * k) ** 2, SeriesConfig(tol=1e-6))
    assert r.verdict is Verdict.CONVERGED
    assert abs(r.value - math.pi**2 / 8.0) <= 1e-5


def test_plateau_then_zero_is_summed_not_misdeclared():
    r = sum_series(lambda k: 1.0 if k < 200 else 0.0)
    assert r.verdict is Verdict.CONVERGED
    assert r.value == 200.0


def test_non_finite_term_raises_with_index():
    def term(k):
        return math.nan if k == 3 else 0.5**k

    with pytest.raises(NonFiniteTermError) as err:
        sum_series(term)
    assert err.value.index == 3


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": 0.0},
        {"tol": -1e-9},
        {"tol": math.inf},
        {"max_terms": 4},
        {"tol": math.nan},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SeriesConfig(**kwargs)


def test_max_terms_below_warmup_message():
    with pytest.raises(ValueError, match=r"max_terms \(4\) must be at least warmup \(16\)"):
        SeriesConfig(max_terms=4)


def test_determinism_bit_identical():
    cfg = SeriesConfig(tol=1e-10)
    first = sum_series(lambda k: 0.8**k * math.cos(0.3 * k), cfg)
    second = sum_series(lambda k: 0.8**k * math.cos(0.3 * k), cfg)
    assert first == second


def test_truncated_value_nondecreasing_in_max_terms():
    # Nonnegative decreasing terms with an unreachable tolerance.
    values = []
    for cap in (100, 1_000, 10_000):
        r = sum_series(lambda k: 1.0 / (k + 1.0) ** 2, SeriesConfig(tol=1e-300, max_terms=cap))
        assert r.verdict is Verdict.TRUNCATION_LIMIT
        values.append(r.value)
    assert values == sorted(values)


def test_result_level_linearity():
    a = lambda k: 0.7**k
    b = lambda k: 0.85**k
    c = 3.0
    cfg = SeriesConfig(tol=1e-12)
    ra = sum_series(a, cfg)
    rb = sum_series(b, cfg)
    rc = sum_series(lambda k: a(k) + c * b(k), cfg)
    term_budget = sum(a(k) + c * b(k) for k in range(rc.terms_used))
    bound = 2.0 * (ra.tail_estimate + c * rb.tail_estimate)
    bound += 8.0 * sys.float_info.epsilon * term_budget
    assert abs(rc.value - (ra.value + c * rb.value)) <= bound


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.9))
def test_geometric_family_converges_to_closed_form(r):
    result = sum_series(lambda k: r**k, SeriesConfig(tol=1e-12))
    assert result.verdict is Verdict.CONVERGED
    assert abs(result.value - 1.0 / (1.0 - r)) <= 2e-12


def test_converged_tail_respects_tolerance():
    cfg = SeriesConfig(tol=1e-8)
    r = sum_series(lambda k: 0.3**k, cfg)
    assert r.verdict is Verdict.CONVERGED
    assert r.tail_estimate <= cfg.tol
    assert r.terms_used <= cfg.max_terms
