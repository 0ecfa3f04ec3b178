"""Tolerance-controlled summation of infinite series.

The engine sums term(0) + term(1) + ... in strict index order with
Kahan-Neumaier compensated accumulation.  Stopping is heuristic: the
remainder is the larger of a geometric and an algebraic (k^-p) model of
the terms in a sliding window, compared against the requested
tolerance; the geometric model's fractional power, and the algebraic
model, are computed only where the geometric one might pass.  Two
heuristics declare divergence: terms that plateau above the tolerance
(the stall rule), and dyadic block sums that shrink like a power law
k^-p with p <= 1 (the condensation rule).  Exhausting the term cap
yields a truncation verdict; a series that may settle ends once its
block sums show p > 1 (_mark_verdict gives both mark verdicts).  Every
verdict reports the partial sum, so callers can attach diagnostics.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Callable
from enum import Enum

from ._record import Record
from .errors import NonFiniteTermError

__all__ = ["SeriesConfig", "SeriesResult", "Verdict", "sum_series"]

# A lone sub-tolerance tail can be a transient zero crossing of the
# integrand; require this many passes in a row before converging.
_CONFIRMATIONS = 2

# Terms summed before the divergence heuristic may fire.
_WARMUP = 16

# Sizes both the ratio-averaging window and the number of consecutive
# non-improving divergence checks tolerated.
_STALL_WINDOW = 32

# Term count of the first dyadic mark of the condensation rule; marks
# double from there.
_FIRST_MARK = 256

# How far above 1 the condensation rule's extrapolated exponent may lie.
# A harmonic series extrapolates to within 1e-3 of 1 at its first check;
# (k + 1)^-1.02 extrapolates to about 1.02 and converges.
_EXPONENT_SLACK = 0.01

# A settling series' exponents may move by at most this share of p - 1
# between marks: a geometric decay's exponent moves by half of it.
_SETTLE_DRIFT = 0.125


class Verdict(Enum):
    """Outcome of one series summation; only a series let settle is settled."""

    CONVERGED = "converged"
    SETTLED = "settled"
    TRUNCATION_LIMIT = "truncation_limit"
    DIVERGENT = "divergent"


class SeriesConfig(Record):
    """Stopping controls for :func:`sum_series`.

    tol is the absolute remainder bound the tail estimate must reach for
    convergence; it must be a real number, not a bool, positive and
    finite.  max_terms caps the number of evaluated terms; it must be an
    int.
    """

    tol: float = 1e-12
    max_terms: int = 1_000_000

    def __post_init__(self) -> None:
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real):
            raise ValueError(f"tol must be a real number, got {self.tol!r}")
        if not isinstance(self.max_terms, int):  # a bool passes, and is below warmup
            raise ValueError(f"max_terms must be an int, got {self.max_terms!r}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if self.max_terms < _WARMUP:
            raise ValueError(
                f"max_terms ({self.max_terms!r}) must be at least warmup ({_WARMUP!r})"
            )


_DEFAULT = SeriesConfig()  # frozen, so one instance serves every call without a cfg


def _config(cfg: SeriesConfig | None) -> SeriesConfig:
    """cfg, or the default SeriesConfig for None; anything else is a ValueError."""
    if cfg is None:
        return _DEFAULT
    if not isinstance(cfg, SeriesConfig):
        raise ValueError(f"cfg must be a SeriesConfig or None, got {cfg!r}")
    return cfg


class SeriesResult(Record):
    """Value and diagnostics of one summation."""

    value: float
    terms_used: int
    tail_estimate: float
    verdict: Verdict


def sum_series(
    term: Callable[[int], float], cfg: SeriesConfig | None = None, *, _settle: bool = False
) -> SeriesResult:
    """Sum the series term(0) + term(1) + ... under cfg's stopping rules.

    Terms must evaluate to finite floats; a NaN or infinity raises
    NonFiniteTermError (any exception the callable itself raises simply
    propagates).  The series converges once the remainder after a_k,
    the larger of _geometric_tail's and _algebraic_tail's estimates over
    the last _STALL_WINDOW (32) terms, is within tol at _CONFIRMATIONS
    terms in a row.  The geometric estimate's power r^(1/32), r =
    |a_k/a_{k-32}|, is taken only when the lower bound 32 |a_k| r / (1 -
    r) on it cannot exceed tol, and the algebraic estimate only when the
    geometric one is within tol; results are those of taking both on
    every term, and tail_estimate is the larger for the last term.  A cfg
    that is neither a SeriesConfig nor None is a ValueError.

    Divergence is declared by either of two heuristics, both checked once
    per _STALL_WINDOW terms that miss tol, so neither adds per-term work:

    - the stall rule: per-window term minima stop improving for
      _STALL_WINDOW consecutive windows while staying above tol (a
      constant series stops after 1,072 terms);
    - the condensation rule (after Cauchy's condensation test): the
      partial sum is recorded at the first window boundary at or after
      each of 256, 512, 1024, ... terms, and _mark_verdict reads the last
      four block sums between those marks as a power law k^-p, divergent
      where p tends to at most 1 (a harmonic series stops after 4,112
      terms).

    Both are heuristics and can misjudge a convergent series: the stall
    rule one whose terms oscillate (sin(k + 1)/(k + 1) at tol=1e-6), the
    condensation rule one whose terms decay like k^-p with p within
    _EXPONENT_SLACK of 1.

    _settle is internal to the strict integrals: it lets a condensation
    mark end a series that _mark_verdict shows convergent, as SETTLED,
    with no tail within tol claimed (a power law settles after 4,112 terms).

    Identical inputs produce bit-identical results: summation order is
    fixed and there is no shared state.
    """
    cfg = _config(cfg)
    # Tails and block minima are floats, so comparing them with the
    # largest float not above tol gives the answers tol itself gives,
    # at a float comparison's cost whatever type tol has.
    tol = float(min(cfg.tol, sys.float_info.max))
    if tol > cfg.tol:
        tol = math.nextafter(tol, 0.0)
    max_terms = cfg.max_terms
    warmup = _WARMUP
    win = _STALL_WINDOW
    # The bound of _geometric_tail with margins: 1 + 2^-40 covers the
    # rounding on both sides, near_one - r for 1 - r covers up to 16 ulps
    # of error in the power (large beside 1 - rho as r nears 1), and the
    # floor keeps every quantity of a passing test a normal float.
    bound_tol = max(tol * (1.0 + 2.0**-40) / win, 2.0**-900)
    near_one = 1.0 + 2.0**-44

    total = 0.0
    comp = 0.0
    slots = win + 1
    window = [0.0] * slots  # ring buffer of recent |a_k|
    confirmations = 0

    best = math.inf  # smallest per-window minimum seen so far
    block_min = math.inf
    block_fill = 0
    stalled = 0

    marks = []  # partial sums at the condensation rule's dyadic marks
    next_mark = _FIRST_MARK

    verdict = Verdict.TRUNCATION_LIMIT  # unless a rule breaks the loop first
    isfinite = math.isfinite
    inf = math.inf

    for k in range(max_terms):
        a = float(term(k))
        if not isfinite(a):
            raise NonFiniteTermError(k, a)
        abs_a = abs(a)

        # Kahan-Neumaier update.
        t = total + a
        if abs(total) >= abs_a:
            comp += (total - t) + a
        else:
            comp += (a - t) + total
        total = t

        i = k % slots
        window[i] = abs_a
        oldest = window[i - win]  # |a_{k-32}|, or 0.0 while k < 32
        if oldest > 0.0:
            r = abs_a / oldest
            if r < 1.0 and abs_a * r <= bound_tol * (near_one - r):
                tail = _geometric_tail(window, k)
            else:
                tail = inf  # above tol: no need to know by how much
        else:  # the warmup, or a restart after an exact zero
            tail = _geometric_tail(window, k)

        if tail <= tol and _algebraic_tail(window, k) <= tol:
            confirmations += 1
            if confirmations >= _CONFIRMATIONS:
                verdict = Verdict.CONVERGED
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
                            break
                    block_min = math.inf
                    block_fill = 0
                    if k >= next_mark - 1:
                        next_mark *= 2
                        marks.append(total + comp)
                        mark = _mark_verdict(marks[-5:], _settle)
                        if mark is not None:
                            verdict = mark
                            break

    # k is the last term summed: max_terms - 1 at truncation (max_terms >= _WARMUP).
    tail = max(_geometric_tail(window, k), _algebraic_tail(window, k))
    return SeriesResult(total + comp, k + 1, tail, verdict)


def _geometric_tail(window: list, k: int) -> float:
    """The remainder after a_k, |a_k| rho / (1 - rho), from sum_series's
    ring buffer of |a|: the geometric mean rho of the last span ratios
    telescopes to r^(1/span), r = |a_k/a_{k-span}|.  It is infinite when
    rho >= 1 or there is no usable ratio (k = 0, or a restart after an
    exact zero).  For span = 32 and r < 1, rho (1 - r) = (1 - rho)(rho
    + rho^2 + ... + rho^32) >= 32 r (1 - rho), so the remainder is at
    least 32 |a_k| r / (1 - r).  An exact zero reads a zero remainder
    once a nonzero term or a whole window (k >= 32) has been read: leading
    zeros are no end of the series, so they read an infinite one.
    """
    slots = len(window)
    span = min(k, slots - 1)
    abs_a = window[k % slots]
    if abs_a == 0.0:  # while k < 32 the slots past k still hold 0.0
        return 0.0 if k >= slots - 1 or any(window) else math.inf
    oldest = window[(k - span) % slots]
    if span == 0 or not oldest > 0.0:
        return math.inf
    rho = (abs_a / oldest) ** (1.0 / span)
    return abs_a * rho / (1.0 - rho) if rho < 1.0 else math.inf


def _algebraic_tail(window: list, k: int) -> float:
    """The remainder after a_k, |a_k| m / (p - 1), if sum_series's ring
    buffer of |a| holds C m^-p at positions m = k + c, infinite for p <= 1.
    p and m fit the falls L1 = ln|a_{k-h}/a_k| and L2 = ln|a_{k-2h}/a_{k-h}|
    (h = 16, or k // 2 while k < 32), each about h p / m' at its half's
    midpoint m': p = L1 L2 / (L2 - L1), m = h/2 + h L2 / (L2 - L1).  A
    fall that does not slow gives the limit |a_k| h / L1; a last half
    that does not fall, infinity.
    """
    slots = len(window)
    half = min(k, slots - 1) // 2
    abs_a = window[k % slots]
    if abs_a == 0.0:
        return 0.0
    mid = window[(k - half) % slots]
    if half == 0 or not mid > abs_a:
        return math.inf
    fall, earlier = mid / abs_a, window[(k - 2 * half) % slots] / mid
    if not earlier > fall:  # also an exact zero, or a fall too steep for a float
        return abs_a * half / math.log(fall)
    l1, l2, slowing = math.log(fall), math.log(earlier), math.log(earlier / fall)
    p = l1 * l2 / slowing
    return abs_a * ((half / 2 + half * l2 / slowing) / (p - 1.0)) if p > 1.0 else math.inf


def _mark_verdict(sums: list, settle: bool) -> Verdict | None:
    """The condensation rule's verdict from the last five dyadic marks'
    partial sums: DIVERGENT, SETTLED (only if settle) or None (before five
    marks, or where the four blocks differ in sign).  A block over [n, 2n)
    of terms C k^-p sums to about C' n^(1 - p), so each neighbouring pair
    reads p = 1 - log2(B_next / B).  It diverges where the last two p are
    at most 1 and their increments shrink, as a geometric decay's never
    do, and extrapolate p (an offset power law's shrink about
    geometrically) to at most 1 + _EXPONENT_SLACK, keeping
    (k + 100)^-1.05 out.  It settles where the last two p exceed 1 and
    rise, both increments within _SETTLE_DRIFT of p - 1, which 1/(k ln k)
    (falling to 1) and a geometric decay (jumping) never show."""
    if len(sums) < 5:
        return None
    blocks = [hi - lo for lo, hi in zip(sums, sums[1:])]
    if not (all(b > 0.0 for b in blocks) or all(b < 0.0 for b in blocks)):
        return None
    logs = [math.log2(abs(b)) for b in blocks]
    p = [1.0 - (hi - lo) for lo, hi in zip(logs, logs[1:])]
    step, last_step = p[1] - p[0], p[2] - p[1]
    if p[1] <= 1.0 and p[2] <= 1.0 and abs(last_step) < abs(step):
        ratio = last_step / step
        if p[2] + last_step * ratio / (1.0 - ratio) <= 1.0 + _EXPONENT_SLACK:
            return Verdict.DIVERGENT
    drift = _SETTLE_DRIFT * (p[2] - 1.0)
    if settle and 1.0 < p[1] < p[2] and p[2] - p[1] <= drift and abs(p[1] - p[0]) <= drift:
        return Verdict.SETTLED
    return None
