"""Tolerance-controlled summation of infinite series.

The engine sums term(0) + term(1) + ... in strict index order with
Kahan-Neumaier compensated accumulation.  Stopping is heuristic: recent
terms are treated as roughly geometric, with the common ratio estimated
by a geometric mean over a sliding window, and the implied remainder
bound is compared against the requested tolerance.  Terms that plateau
above the tolerance are declared divergent; exhausting the term cap
yields a truncation verdict.  The partial sum is reported under every
verdict so callers can attach diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

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


class Verdict(Enum):
    """Outcome of one series summation."""

    CONVERGED = "converged"
    TRUNCATION_LIMIT = "truncation_limit"
    DIVERGENT = "divergent"


@dataclass(frozen=True)
class SeriesConfig:
    """Stopping controls for :func:`sum_series`.

    tol is the absolute remainder bound the tail estimate must reach for
    convergence; it must be positive and finite.  max_terms caps the
    number of evaluated terms.
    """

    tol: float = 1e-12
    max_terms: int = 1_000_000

    def __post_init__(self) -> None:
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if self.max_terms < _WARMUP:
            raise ValueError(
                f"max_terms ({self.max_terms!r}) must be at least warmup ({_WARMUP!r})"
            )


@dataclass(frozen=True)
class SeriesResult:
    """Value and diagnostics of one summation."""

    value: float
    terms_used: int
    tail_estimate: float
    verdict: Verdict


def sum_series(term: Callable[[int], float], cfg: SeriesConfig | None = None) -> SeriesResult:
    """Sum the series term(0) + term(1) + ... under cfg's stopping rules.

    Terms must evaluate to finite floats; a NaN or infinity raises
    NonFiniteTermError (any exception the callable itself raises simply
    propagates).  The tail estimate treats the recent terms as geometric:
    with rho the geometric-mean ratio |a_k/a_{k-1}| over the last
    _STALL_WINDOW (32) steps, the remainder after a_k is taken to be
    |a_k| * rho / (1 - rho), infinite when rho >= 1.  Divergence is
    declared once per-window term minima stop improving for _STALL_WINDOW
    consecutive windows while staying above tol.

    Identical inputs produce bit-identical results: summation order is
    fixed and there is no shared state.
    """
    if cfg is None:
        cfg = SeriesConfig()
    tol = cfg.tol
    max_terms = cfg.max_terms
    warmup = _WARMUP
    win = _STALL_WINDOW

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
        if abs_a == 0.0:
            tail = 0.0
        elif span == 0:
            tail = math.inf
        else:
            oldest = window[(k - span) % slots]
            if oldest > 0.0:
                rho = (abs_a / oldest) ** (1.0 / span)
                tail = abs_a * rho / (1.0 - rho) if rho < 1.0 else math.inf
            else:
                tail = math.inf  # restarted after an exact zero: no usable ratio

        if tail <= tol:
            confirmations += 1
            if confirmations >= _CONFIRMATIONS:
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

    return SeriesResult(total + comp, terms_used, tail, verdict)
