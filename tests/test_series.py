import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from norlund import NonFiniteTermError, SeriesConfig, Verdict, series, sum_series


def test_zero_series_converges_after_one_window():
    # a zero remainder needs a whole window of zeros, then its confirmations
    r = sum_series(lambda k: 0.0)
    assert r.value == 0.0
    assert r.verdict is Verdict.CONVERGED
    assert r.terms_used <= series._STALL_WINDOW + series._CONFIRMATIONS


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


def test_leading_zeros_are_not_read_as_the_end_of_the_series():
    # 0 + 0 + 1/4 + 1/8 + ... = 1/2; two leading zeros once read as converged at 0.0
    cfg = SeriesConfig(tol=1e-9)
    r = sum_series(lambda k: 0.0 if k < 2 else 0.5**k, cfg)
    assert r.verdict is Verdict.CONVERGED
    assert abs(r.value - 0.5) <= cfg.tol


def test_zeros_at_every_other_term_are_summed_past():
    # the odd terms are zero: 1 + 3^-3 + 5^-3 + ... = 7/8 zeta(3)
    cfg = SeriesConfig(tol=1e-6)
    r = sum_series(lambda k: 0.0 if k % 2 else (k + 1.0) ** -3, cfg)
    assert r.verdict is Verdict.CONVERGED
    assert abs(r.value - 7.0 / 8.0 * 1.2020569031595942) <= cfg.tol


@pytest.mark.xfail(strict=True, reason="two exact zeros inside a series read as its end")
def test_two_zeros_inside_a_series_are_not_read_as_its_end():
    # Two zeros every 40 terms: the pair at k = 40, 41 reads as a zero
    # remainder, converged after 42 terms at 0.3702439630069354.
    cfg = SeriesConfig(tol=1e-6)
    r = sum_series(lambda k: 0.0 if k % 40 in (0, 1) else (k + 1.0) ** -2, cfg)
    total = 0.3929836449487343  # math.fsum of the first 10^6 terms
    assert r.verdict is not Verdict.CONVERGED or abs(r.value - total) <= cfg.tol


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
        {"max_terms": 16.5},
        {"max_terms": 1e6},
        {"tol": True},
        {"tol": "1e-6"},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SeriesConfig(**kwargs)


def test_max_terms_below_warmup_message():
    with pytest.raises(ValueError, match=r"max_terms \(4\) must be at least warmup \(16\)"):
        SeriesConfig(max_terms=4)


def test_no_cfg_means_one_shared_default_config():
    assert series._config(None) is series._config(None)
    assert series._config(None) == SeriesConfig()


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


# ----------------------------------------------------------------------
# Pinned results: the engine's value, terms_used, tail_estimate and
# verdict for a battery of series, first recorded before the condensation
# rule existed.  The rule may only end series that diverge; every row here
# must stay bit-identical.  The cap keeps the table cheap while still
# passing the rule's dyadic checks up to 65,552 terms.  The rows were
# re-pinned when the tail became the larger of the geometric and the
# algebraic estimates; every converged row is checked against an
# independent value of its sum below.
# ----------------------------------------------------------------------

PINNED_SERIES = {
    "constant": lambda k: 1.0,
    "geometric_0.9": lambda k: 0.9**k,
    "exp_1e-3": lambda k: math.exp(-1e-3 * k),
    "exp_1e-4": lambda k: math.exp(-1e-4 * k),
    "exp_3e-5": lambda k: math.exp(-3e-5 * k),
    "exp_offset": lambda k: math.exp(-5e-5 * k) / (k + 2048),
    "inv_sq_shift": lambda k: 1.0 / (k + 1.5) ** 2,
    "p_1.05": lambda k: 1.0 / (k + 1) ** 1.05,
    "p_1.2": lambda k: 1.0 / (k + 1) ** 1.2,
    "log_sq": lambda k: 1.0 / ((k + 2) * math.log(k + 2) ** 2),
    "alt_harmonic": lambda k: (-1.0) ** k / (k + 1),
    "sin_over_k": lambda k: math.sin(k + 1) / (k + 1),
    "two_plus_sin": lambda k: (2 + math.sin(k)) / (k + 1) ** 2,
    "odd_sq": lambda k: 1.0 / (1 + 2 * k) ** 2,
}
PINNED_MAX_TERMS = 2**17

# (name, tol): (value.hex(), terms_used, repr(tail_estimate), verdict)
PINNED = {
    ("constant", 1e-4):
        ("0x1.0c00000000000p+10", 1072, "inf", "divergent"),
    ("constant", 1e-6):
        ("0x1.0c00000000000p+10", 1072, "inf", "divergent"),
    ("constant", 1e-12):
        ("0x1.0c00000000000p+10", 1072, "inf", "divergent"),
    ("geometric_0.9", 1e-4):
        ("0x1.3fff513279ce3p+3", 111, "8.790187740799992e-05", "converged"),
    ("geometric_0.9", 1e-6):
        ("0x1.3ffffe4e07e73p+3", 155, "8.524493150928183e-07", "converged"),
    ("geometric_0.9", 1e-12):
        ("0x1.3fffffffffe34p+3", 286, "8.638479415531633e-13", "converged"),
    ("exp_1e-3", 1e-4):
        ("0x1.f43fff7634525p+9", 16121, "9.980974630803537e-05", "converged"),
    ("exp_1e-3", 1e-6):
        ("0x1.f44002b2ae46dp+9", 20726, "9.982673397382225e-07", "converged"),
    ("exp_1e-3", 1e-12):
        ("0x1.f44002bb0cf73p+9", 34541, "9.987771432102583e-13", "converged"),
    ("exp_1e-4", 1e-4):
        ("0x1.3883d66ddd996p+13", 131072, "0.020307609153418494", "truncation_limit"),
    ("exp_1e-4", 1e-6):
        ("0x1.3883d66ddd996p+13", 131072, "0.020307609153418494", "truncation_limit"),
    ("exp_1e-4", 1e-12):
        ("0x1.3883d66ddd996p+13", 131072, "0.020307609153418494", "truncation_limit"),
    ("exp_3e-5", 1e-4):
        ("0x1.fea1ca00a406ep+14", 131072, "653.3958699132401", "truncation_limit"),
    ("exp_3e-5", 1e-6):
        ("0x1.fea1ca00a406ep+14", 131072, "653.3958699132401", "truncation_limit"),
    ("exp_3e-5", 1e-12):
        ("0x1.fea1ca00a406ep+14", 131072, "653.3958699132401", "truncation_limit"),
    ("exp_offset", 1e-4):
        ("0x1.feec56d306142p+0", 131072, "0.00018936742454220303", "truncation_limit"),
    ("exp_offset", 1e-6):
        ("0x1.feec56d306142p+0", 131072, "0.00018936742454220303", "truncation_limit"),
    ("exp_offset", 1e-12):
        ("0x1.feec56d306142p+0", 131072, "0.00018936742454220303", "truncation_limit"),
    ("inv_sq_shift", 1e-4):
        ("0x1.de914a19713bap-1", 10001, "9.998500231703559e-05", "converged"),
    ("inv_sq_shift", 1e-6):
        ("0x1.de9d64dfa2eefp-1", 131072, "7.629365448389279e-06", "truncation_limit"),
    ("inv_sq_shift", 1e-12):
        ("0x1.de9d64dfa2eefp-1", 131072, "7.629365448389279e-06", "truncation_limit"),
    ("p_1.05", 1e-4):
        ("0x1.2f865cda65e3bp+3", 131072, "11.095693007708448", "truncation_limit"),
    ("p_1.05", 1e-6):
        ("0x1.2f865cda65e3bp+3", 131072, "11.095693007708448", "truncation_limit"),
    ("p_1.05", 1e-12):
        ("0x1.2f865cda65e3bp+3", 131072, "11.095693007708448", "truncation_limit"),
    ("p_1.2", 1e-4):
        ("0x1.478c0618d642ap+2", 131072, "0.4736614434619221", "truncation_limit"),
    ("p_1.2", 1e-6):
        ("0x1.478c0618d642ap+2", 131072, "0.4736614434619221", "truncation_limit"),
    ("p_1.2", 1e-12):
        ("0x1.478c0618d642ap+2", 131072, "0.4736614434619221", "truncation_limit"),
    ("log_sq", 1e-4):
        ("0x1.032f37ba68ca8p+1", 131072, "0.04575109711555398", "truncation_limit"),
    ("log_sq", 1e-6):
        ("0x1.032f37ba68ca8p+1", 131072, "0.04575109711555398", "truncation_limit"),
    ("log_sq", 1e-12):
        ("0x1.032f37ba68ca8p+1", 131072, "0.04575109711555398", "truncation_limit"),
    ("alt_harmonic", 1e-4):
        ("0x1.62e3afefc39efp-1", 131072, "inf", "truncation_limit"),
    ("alt_harmonic", 1e-6):
        ("0x1.62e3afefc39efp-1", 131072, "inf", "truncation_limit"),
    ("alt_harmonic", 1e-12):
        ("0x1.62e3afefc39efp-1", 131072, "inf", "truncation_limit"),
    ("sin_over_k", 1e-4):
        ("0x1.121f7064b809dp+0", 131072, "inf", "truncation_limit"),
    ("sin_over_k", 1e-6):
        ("0x1.121e0558ed9e3p+0", 37981, "0.0023139594460652316", "divergent"),
    ("sin_over_k", 1e-12):
        ("0x1.121fc275dc645p+0", 105392, "inf", "divergent"),
    ("two_plus_sin", 1e-4):
        ("0x1.c8188453c343bp+1", 1168, "9.238179664360068e-05", "converged"),
    ("two_plus_sin", 1e-6):
        ("0x1.c84b7b40bf4ebp+1", 12773, "8.934924720841822e-07", "converged"),
    ("two_plus_sin", 1e-12):
        ("0x1.c8501cb6248b3p+1", 131072, "8.121252755563575e-09", "truncation_limit"),
    ("odd_sq", 1e-4):
        ("0x1.3bcd403a7dab6p+0", 2502, "9.994004039566099e-05", "converged"),
    ("odd_sq", 1e-6):
        ("0x1.3bd3ac9be45dep+0", 131072, "1.9073559033485553e-06", "truncation_limit"),
    ("odd_sq", 1e-12):
        ("0x1.3bd3ac9be45dep+0", 131072, "1.9073559033485553e-06", "truncation_limit"),
}


@pytest.mark.parametrize("name, tol", list(PINNED))
def test_pinned_series_results(name, tol):
    r = sum_series(PINNED_SERIES[name], SeriesConfig(tol=tol, max_terms=PINNED_MAX_TERMS))
    got = (r.value.hex(), r.terms_used, repr(r.tail_estimate), r.verdict.value)
    assert got == PINNED[name, tol]


def _clausen2_at_1():
    """Cl2(1) = sum sin(n)/n^2, from 1 + sum |B_2k| / (2k (2k+1)!)."""
    bernoulli = (Fraction(1, 6), Fraction(1, 30), Fraction(1, 42), Fraction(1, 30),
                 Fraction(5, 66), Fraction(691, 2730), Fraction(7, 6), Fraction(3617, 510))
    return float(1 + sum(b / (2 * k * math.factorial(2 * k + 1))
                         for k, b in enumerate(bernoulli, 1)))


# The sums of the series with a converged row, in closed form.  two_plus_sin
# is 2 zeta(2) + cos(1) Cl2(1) - sin(1) (pi^2/6 - pi/2 + 1/4).
PINNED_SUMS = {
    "geometric_0.9": 10.0,
    "exp_1e-3": 1.0 / -math.expm1(-1e-3),
    "inv_sq_shift": math.pi**2 / 2.0 - 4.0,
    "two_plus_sin": math.pi**2 / 3.0 + math.cos(1.0) * _clausen2_at_1()
    - math.sin(1.0) * (math.pi**2 / 6.0 - math.pi / 2.0 + 0.25),
    "odd_sq": math.pi**2 / 8.0,
}

# A 32-term window cannot fit a power law under terms whose size
# oscillates: both tail models read a trough after a peak as a steep decay.
_OSCILLATING = pytest.mark.xfail(strict=True, reason="the tail models misread oscillating terms")


@pytest.mark.parametrize("name, tol", [
    pytest.param(name, tol, marks=_OSCILLATING if name == "two_plus_sin" else ())
    for (name, tol), row in PINNED.items() if row[3] == "converged"
])
def test_pinned_converged_rows_are_within_tol_of_their_sums(name, tol):
    value = float.fromhex(PINNED[name, tol][0])
    assert abs(value - PINNED_SUMS[name]) <= tol


def test_two_plus_sin_closed_form_against_a_long_sum():
    # the remainder after N terms of (2 + sin k)/(k + 1)^2 is within 3/N
    n = 10**5
    partial = math.fsum((2.0 + math.sin(k)) / (k + 1.0) ** 2 for k in range(n))
    assert 0.0 < PINNED_SUMS["two_plus_sin"] - partial <= 3.0 / n


# ----------------------------------------------------------------------
# The condensation rule against the mathematics
# ----------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    st.floats(min_value=0.3, max_value=1.0),
    st.floats(min_value=0.5, max_value=100.0),
    st.sampled_from([1.0, -1.0]),
)
def test_slow_power_laws_are_divergent(p, c, sign):
    # sum (k + c)^-p diverges for p <= 1
    r = sum_series(lambda k: sign / (k + c) ** p, SeriesConfig(tol=1e-6, max_terms=2**16))
    assert r.verdict is Verdict.DIVERGENT
    assert r.terms_used < 2**16


@settings(max_examples=4, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=100.0),
    st.sampled_from([1e-4, 1e-6, 1e-12]),
    st.sampled_from([1.0, -1.0]),
)
@example(1.0, 1e-6, 1.0)
def test_p_105_is_never_divergent(c, tol, sign):
    # sum (k + c)^-1.05 converges (to zeta(1.05), about 20.6, at c = 1),
    # slowly enough that no cap here reaches tol
    r = sum_series(lambda k: sign / (k + c) ** 1.05, SeriesConfig(tol=tol, max_terms=2**18))
    assert r.verdict is not Verdict.DIVERGENT
    # the first term plus the integral of x^-1.05 from c bounds the sum
    assert 0.0 < sign * r.value < c**-1.05 + 20.0 * c**-0.05


def test_offset_power_law_just_above_one_is_not_divergent():
    # sum (k + 20)^-1.015 converges.  At 4,112 terms its block exponents
    # extrapolate to between 1.01 and 1.02, so a condensation slack of 0.02
    # would call it divergent there.
    r = sum_series(lambda k: (k + 20) ** -1.015, SeriesConfig(tol=1e-6, max_terms=8192))
    assert r.verdict is not Verdict.DIVERGENT


@pytest.mark.parametrize("c", [0.05, 1.3, 4.0])
def test_an_offset_square_law_settles_at_the_first_condensation_check(c):
    # 1/((k + c)(k + c + 1)) telescopes to 1/c; at tol 1e-6 it needs about
    # 10^6 terms, but its block exponents rise towards 2 and settle it
    cfg = SeriesConfig(tol=1e-6)
    term = lambda k: 1.0 / ((k + c) * (k + c + 1.0))  # noqa: E731
    r = sum_series(term, cfg, _settle=True)
    assert (r.verdict, r.terms_used) == (Verdict.SETTLED, 4112)
    assert r.tail_estimate > cfg.tol  # a settled series claims no tail within tol
    assert 0.0 < 1.0 / c - r.value <= r.tail_estimate
    assert sum_series(term, cfg).verdict is not Verdict.SETTLED  # only on request


@pytest.mark.parametrize(
    "term",
    [
        lambda k: 1.0 / ((k + 2) * math.log(k + 2)),  # exponents fall towards 1
        lambda k: math.exp(-(k + 1) / 1000) + 1.0 / (k + 1),  # they jump as the 1/k tail shows
        lambda k: 1.0 / (k + 1),
        lambda k: 1.0,
    ],
    ids=["k_ln_k", "exp_then_harmonic", "harmonic", "constant"],
)
def test_a_divergent_series_never_settles(term):
    r = sum_series(term, SeriesConfig(tol=1e-6, max_terms=2**17), _settle=True)
    assert r.verdict in (Verdict.DIVERGENT, Verdict.TRUNCATION_LIMIT)


def test_a_geometric_decay_does_not_settle_before_it_converges():
    # its block exponents grow by about half of p - 1 at each doubling
    r = sum_series(lambda k: math.exp(-k / 600), SeriesConfig(tol=1e-9), _settle=True)
    assert r.verdict is Verdict.CONVERGED
    assert abs(r.value - 1.0 / -math.expm1(-1 / 600)) <= 1e-9


def test_alternating_harmonic_is_never_divergent():
    for tol in (1e-4, 1e-6, 1e-12):
        r = sum_series(lambda k: (-1.0) ** k / (k + 1), SeriesConfig(tol=tol, max_terms=2**17))
        assert r.verdict is not Verdict.DIVERGENT
        assert abs(r.value - math.log(2.0)) <= 1.0 / r.terms_used


@settings(max_examples=5, deadline=None)
@given(st.floats(min_value=1e-4, max_value=0.5))
@example(1e-4)
def test_slow_exponentials_converge(eps):
    # at eps = 1e-4 this takes 230,261 terms
    r = sum_series(lambda k: math.exp(-eps * k), SeriesConfig(tol=1e-6))
    assert r.verdict is Verdict.CONVERGED
    assert abs(r.value - 1.0 / -math.expm1(-eps)) <= 1e-5


# ----------------------------------------------------------------------
# Differential test: the engine against its earlier loop, which took the
# geometric tail's power on every term, here with the algebraic tail also
# taken on every term.  Every result and every exception must be
# bit-identical, and term must be called in the same order.
# ----------------------------------------------------------------------


def _reference_sum_series(term, cfg=None):
    """sum_series as it was before the tail's power was skipped by a bound,
    with both tail models taken on every term."""
    if cfg is None:
        cfg = SeriesConfig()
    tol = cfg.tol
    max_terms = cfg.max_terms
    warmup = series._WARMUP
    win = series._STALL_WINDOW

    total = 0.0
    comp = 0.0
    slots = win + 1
    window = [0.0] * slots  # ring buffer of recent |a_k|
    tail = math.inf
    confirmations = 0

    best = math.inf  # smallest per-window minimum seen so far
    block_min = math.inf
    block_fill = 0
    stalled = 0

    marks = []  # partial sums at the condensation rule's dyadic marks
    next_mark = series._FIRST_MARK

    verdict = Verdict.TRUNCATION_LIMIT
    terms_used = max_terms
    isfinite = math.isfinite

    for k in range(max_terms):
        a = float(term(k))
        if not isfinite(a):
            raise NonFiniteTermError(k, a)

        # Kahan-Neumaier update.
        t = total + a
        if abs(total) >= abs(a):
            comp += (total - t) + a
        else:
            comp += (a - t) + total
        total = t

        abs_a = abs(a)
        window[k % slots] = abs_a

        # The geometric mean of the last `span` ratios telescopes to a
        # single endpoint ratio, so no per-step ratio history is needed.
        span = win if k >= win else k
        oldest = window[(k - span) % slots]
        if abs_a == 0.0:
            # Zero once a nonzero term, or a whole window of 33 terms, has
            # been read: leading zeros are no end of the series.
            tail = 0.0 if k >= win or max(window) > 0.0 else math.inf
        elif span == 0:
            tail = math.inf
        else:
            if oldest > 0.0:
                rho = (abs_a / oldest) ** (1.0 / span)
                tail = abs_a * rho / (1.0 - rho) if rho < 1.0 else math.inf
            else:
                tail = math.inf  # restarted after an exact zero: no usable ratio

        # The algebraic model: |a| ~ C m^-p, m = k + 1 less an offset, p and
        # m fitted to the falls over the window's two halves of h terms; the
        # remainder is about |a_k| m / (p - 1).  The larger of the two
        # estimates is the tail.
        h = span // 2
        mid = window[(k - h) % slots]
        if abs_a > 0.0 and h > 0 and mid > abs_a:
            r1, r2 = mid / abs_a, window[(k - 2 * h) % slots] / mid
            if r2 > r1:
                l1, l2 = math.log(r1), math.log(r2)
                slowing = math.log(r2 / r1)  # l2 - l1, without its cancellation
                p = l1 * l2 / slowing
                m = h / 2 + h * l2 / slowing
                tail = max(tail, abs_a * (m / (p - 1.0)) if p > 1.0 else math.inf)
            else:  # a fall that does not slow: m / (p - 1) tends to h / l1
                tail = max(tail, abs_a * h / math.log(r1))
        elif abs_a > 0.0:
            tail = math.inf  # no fall to fit

        if tail <= tol:
            confirmations += 1
            if confirmations >= series._CONFIRMATIONS:
                verdict = Verdict.CONVERGED
                terms_used = k + 1
                break
        else:
            confirmations = 0
            if k >= warmup:
                if abs_a < block_min:
                    block_min = abs_a
                block_fill += 1
                if block_fill == win:
                    if block_min < best:
                        best = block_min
                        stalled = 0
                    else:
                        stalled += 1
                        if stalled >= win and block_min > tol:
                            verdict = Verdict.DIVERGENT
                            terms_used = k + 1
                            break
                    block_min = math.inf
                    block_fill = 0
                    if k >= next_mark - 1:
                        next_mark *= 2
                        marks.append(total + comp)
                        if _reference_power_law_divergent(marks[-5:]):
                            verdict = Verdict.DIVERGENT
                            terms_used = k + 1
                            break

    return series.SeriesResult(total + comp, terms_used, tail, verdict)


def _reference_power_law_divergent(sums):
    """The condensation rule as the README states it, apart from the
    engine's code: the four block sums between the last five marks (at
    about 256, 512, 1024, ... terms) read as a power law k^-p are divergent
    where they have one sign, the exponents of the last two block pairs
    are at most 1, and their increments shrink and, summed as a geometric
    series, extrapolate the exponent to at most 1.01."""
    if len(sums) < 5:
        return False
    blocks = [sums[i + 1] - sums[i] for i in range(4)]
    if not (min(blocks) > 0.0 or max(blocks) < 0.0):
        return False
    # A block over [n, 2n) of terms k^-p sums to about n^(1 - p), and the
    # next one to (2n)^(1 - p): their ratio is 2^(1 - p).
    p = [1.0 - math.log2(abs(blocks[i + 1])) + math.log2(abs(blocks[i])) for i in range(3)]
    d1, d2 = p[1] - p[0], p[2] - p[1]
    if p[1] > 1.0 or p[2] > 1.0 or abs(d2) >= abs(d1):
        return False
    # p[2] + d2 r + d2 r^2 + ... with r = d2 / d1
    return p[2] + d2 * d2 / (d1 - d2) <= 1.01


def _outcome(engine, term, cfg):
    """An engine's result as comparable text, or its exception, with the
    indices term was called at."""
    calls = []

    def recorded(k):
        calls.append(k)
        return term(k)

    try:
        r = engine(recorded, cfg)
    except Exception as exc:
        return (type(exc), exc.args), calls
    return (r.value.hex(), r.terms_used, repr(r.tail_estimate), r.verdict.value), calls


def _assert_same_as_reference(term, cfg):
    got, got_calls = _outcome(sum_series, term, cfg)
    want, want_calls = _outcome(_reference_sum_series, term, cfg)
    assert got == want
    assert got_calls == want_calls
    if isinstance(got[1], int):  # a result: term was called once per term used, in order
        assert got_calls == list(range(got[1]))
    return got


def _sweep_terms(rng):
    """One term of each shape, with seeded parameters."""
    q = rng.uniform(0.05, 0.999)
    slow = 1.0 - 10.0 ** rng.uniform(-9.0, -2.0)  # ratio nearly 1: the bound is tight
    p = rng.uniform(0.5, 3.0)
    gap = rng.randint(2, 90)
    return {
        "constant": lambda k: 1.0,
        "geometric": lambda k: q**k,
        "slow_geometric": lambda k: slow**k,
        "algebraic": lambda k: (k + 1.0) ** -p,
        "alternating": lambda k: (-1.0) ** k * (k + 1.0) ** -p,
        "oscillating": lambda k: math.sin(k + 1.0) / (k + 1.0),
        "int_valued": lambda k: 10**9 // (k + 1) ** 2,
        "restart_after_zero": lambda k: 0.0 if k % gap in (0, 1) else (k + 1.0) ** -2,
    }


class _CountingTol(float):
    """A float tol that counts the calls of its __ge__, which tail <= tol
    makes when tol is compared as given."""

    ge_calls = 0

    def __ge__(self, other):
        _CountingTol.ge_calls += 1
        return float.__ge__(self, other)


# Compared as the largest float not above them; the reference compares as given.
NON_FLOAT_TOLS = {
    "np_1e-6": np.float64(1e-6),
    "fraction_1e-6": Fraction(1, 10**6),
    "fraction_third": Fraction(1, 3 * 10**5),  # rounds up to a float above it
    "int_beyond_float": 10**400,
    "fraction_below_float": Fraction(1, 10**400),  # rounds to 0.0
    "np_smallest_subnormal": np.float64(5e-324),
    "float_subclass": _CountingTol(1e-6),
}

SWEEP_TOLS = (5e-324, 1e-310, 1e-12, 1e-6, 1.0, 1.7e308, *NON_FLOAT_TOLS.values())
SWEEP_MAX_TERMS = (16, 31, 32, 33, 2**12)
# near underflow (subnormal terms), plain, and near overflow
SWEEP_SCALES = (1e-320, 1e-300, 1.0, 1e300, 1e307)


@pytest.mark.parametrize("tol", SWEEP_TOLS)
def test_engine_matches_reference_loop_on_a_seeded_sweep(tol):
    rng = random.Random(f"series sweep {tol!r}")
    for shape in _sweep_terms(rng).values():
        scale = rng.choice(SWEEP_SCALES)
        for max_terms in SWEEP_MAX_TERMS:
            cfg = SeriesConfig(tol=tol, max_terms=max_terms)
            _assert_same_as_reference(shape, cfg)
            _assert_same_as_reference(lambda k: scale * shape(k), cfg)


@pytest.mark.parametrize("tol", (1e-12, 1e-6))
def test_engine_matches_reference_loop_past_the_condensation_marks(tol):
    # The sweep above stops before the fifth mark (4,112 terms), where the
    # condensation rule first reads; these offset power laws run past it.
    rng = random.Random(f"series marks {tol!r}")
    verdicts = []
    for _ in range(12):
        p, c, sign = rng.uniform(0.5, 1.3), rng.uniform(1.0, 1000.0), rng.choice((-1.0, 1.0))
        term = lambda k: sign * (k + c) ** -p  # noqa: E731
        verdicts.append(_assert_same_as_reference(term, SeriesConfig(tol=tol, max_terms=2**13))[3])
    assert "divergent" in verdicts and "truncation_limit" in verdicts


@pytest.mark.parametrize("digits", range(16, 53))
def test_engine_matches_reference_where_tol_is_the_tail_itself(digits):
    # A geometric series whose 32-term ratio is 1 - 2^-digits, with tol set
    # to the reference's own tail at the last term: the engine's bound is
    # nearest its rounding there, and must still take the power.  Without
    # the margin for the power's own rounding error, digits 26-28 differ.
    q = (1.0 - 2.0**-digits) ** (1.0 / 32.0)
    for scale in (1.0, 1e-300, 1e300):
        for last in (40, 100, 300):
            term = lambda k: scale * q**k
            probe = _reference_sum_series(term, SeriesConfig(tol=5e-324, max_terms=last + 1))
            tail = probe.tail_estimate
            if not 0.0 < tail < math.inf:
                continue
            for tol in (tail, math.nextafter(tail, 0.0), math.nextafter(tail, math.inf)):
                _assert_same_as_reference(term, SeriesConfig(tol=tol, max_terms=last + 3))


@pytest.mark.parametrize(
    "term, cfg, verdict",
    [
        (lambda k: 0.5**k, SeriesConfig(tol=1e-9), Verdict.CONVERGED),
        (lambda k: 1.0, SeriesConfig(tol=1e-6), Verdict.DIVERGENT),
        (lambda k: 1.0 / (k + 1), SeriesConfig(tol=1e-6), Verdict.DIVERGENT),
        (lambda k: (k + 1.0) ** -2, SeriesConfig(tol=1e-12, max_terms=3000), Verdict.TRUNCATION_LIMIT),
    ],
)
def test_term_is_called_once_per_term_used_in_index_order(term, cfg, verdict):
    got = _assert_same_as_reference(term, cfg)
    assert got[3] == verdict.value


@pytest.mark.parametrize("stop", [0, 1, 31, 32, 33, 700])
def test_a_raising_or_non_finite_term_stops_both_engines_at_the_same_index(stop):
    def raising(k):
        if k == stop:
            raise ZeroDivisionError(f"term {k}")
        return (k + 1.0) ** -1.5

    def non_finite(k):
        return math.inf if k == stop else (k + 1.0) ** -1.5

    for term, error in ((raising, ZeroDivisionError), (non_finite, NonFiniteTermError)):
        got, calls = _outcome(sum_series, term, SeriesConfig(tol=1e-12))
        assert got[0] is error
        assert calls == list(range(stop + 1))
        _assert_same_as_reference(term, SeriesConfig(tol=1e-12))


@pytest.mark.parametrize("max_terms", [16, 33, 100])
def test_terms_that_rise_out_of_the_subnormals_fit_no_fall(max_terms):
    # |a_{k-32}| / |a_k| underflows to 0.0: the algebraic fit reads no fall
    # (an infinite tail), where taking its log would be a math domain error
    term = lambda k: 5e-324 if k == 0 else 1e300  # noqa: E731
    got = _assert_same_as_reference(term, SeriesConfig(max_terms=max_terms))
    assert got[2:] == ("inf", "truncation_limit")


@pytest.mark.parametrize("cfg", [{"tol": 1e-6}, "x", 0, 1e-6, SeriesConfig])
def test_a_cfg_that_is_not_a_series_config_is_refused_before_any_term(cfg):
    calls = []
    with pytest.raises(ValueError, match=r"cfg must be a SeriesConfig or None, got "):
        sum_series(lambda k: calls.append(k) or 1.0, cfg)
    assert calls == []


def test_a_float_subclass_tol_is_not_compared_per_term():
    cfg = SeriesConfig(tol=_CountingTol(1e-6), max_terms=2**12)
    term = lambda k: (k + 1.0) ** -2  # noqa: E731
    _CountingTol.ge_calls = 0
    reference = _reference_sum_series(term, cfg)
    assert _CountingTol.ge_calls == reference.terms_used == 2**12  # once per term
    _CountingTol.ge_calls = 0
    sum_series(term, cfg)
    assert _CountingTol.ge_calls == 0


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
def test_a_tol_next_to_a_float_tail_compares_as_given(scale):
    # tol a hair below the reference's own tail rounds up to that tail as
    # a float, so the engine must round it down to compare the same.
    term = lambda k: scale * 0.9**k  # noqa: E731
    tail = _reference_sum_series(term, SeriesConfig(tol=5e-324, max_terms=100)).tail_estimate
    hair = Fraction(1, 10**400)
    for tol in (Fraction(tail) - hair, Fraction(tail), Fraction(tail) + hair):
        _assert_same_as_reference(term, SeriesConfig(tol=tol, max_terms=102))
