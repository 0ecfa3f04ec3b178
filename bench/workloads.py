"""The benchmark's two workloads: seeded inputs, the timed call, and an oracle.

Every workload turns a seed into a fixed list of ops (one pass); bench/run.py
repeats the pass in a closed loop.  Ops are plain data, so two lists made
from one seed compare equal.  Each op's expected outcome comes from the
mathematics, checked by stdlib-only oracles written here: closed forms, or
``math.fsum`` sums over a Python twin of each expression.  Nothing here calls
norlund to decide what the right answer is.

Outcomes are graded OK, FAILED (the program refused an op that has an
answer) or WRONG (the program gave an answer that contradicts the oracle).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from spans import BenchError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

OK, FAILED, WRONG = "ok", "failed", "wrong"

# Oracle sums use math.fsum; norlund sums left to right, which over at most
# ~2,000 terms leaves a relative error far below this.
REL_TOL = 1e-9
CHECK_TOL = 1e-9  # the CLI's --check-tol default, which no op overrides


# ----------------------------------------------------------------------
# Expression family: text for the CLI, and a Python twin for the oracle.
# Twins perform the same floating-point operations as the parsed tree.
# ----------------------------------------------------------------------

TEMPLATES = {
    # name: (text, twin(c, t), coefficient ranges)
    "wave": ("{0} + {1}*sin({2}*t)",
             lambda c, t: c[0] + c[1] * math.sin(c[2] * t),
             ((1.5, 3.0), (0.2, 1.0), (0.05, 0.5))),
    "bump": ("{0}/(1 + {1}*t^2)",
             lambda c, t: c[0] / (1 + c[1] * math.pow(t, 2.0)),
             ((0.5, 4.0), (0.01, 0.5))),
    "peak": ("exp(-{0}*abs(t - {1}))",
             lambda c, t: math.exp(-c[0] * abs(t - c[1])),
             ((0.005, 0.05), (0.0, 100.0))),
    "root": ("sqrt({0} + cos({1}*t))",
             lambda c, t: math.sqrt(c[0] + math.cos(c[1] * t)),
             ((1.2, 2.5), (0.05, 0.5))),
    "swing": ("pow({0}, sin({1}*t))",
             lambda c, t: math.pow(c[0], math.sin(c[1] * t)),
             ((1.5, 3.0), (0.05, 0.5))),
    "ratio": ("{0}*t/(1 + t^2)",
             lambda c, t: c[0] * t / (1 + math.pow(t, 2.0)),
             ((0.5, 3.0),)),
}
FAMILY = ("wave", "bump", "peak", "root", "swing", "ratio")


@dataclass(frozen=True)
class Fn:
    """One expression: a template and its coefficients, optionally dominating
    another expression as abs(inner) + c."""

    name: str
    coeffs: Tuple[float, ...] = ()
    inner: Optional["Fn"] = None

    @property
    def text(self) -> str:
        if self.name == "dominating":
            return f"abs({self.inner.text}) + {self.coeffs[0]!r}"
        return TEMPLATES[self.name][0].format(*(repr(c) for c in self.coeffs))

    def twin(self):
        if self.name == "dominating":
            inner, c = self.inner.twin(), self.coeffs[0]
            return lambda t: abs(inner(t)) + c
        rule, c = TEMPLATES[self.name][1], self.coeffs
        return lambda t: rule(c, t)


def random_fn(rng: random.Random, name: str) -> Fn:
    ranges = TEMPLATES[name][2]
    return Fn(name, tuple(round(rng.uniform(lo, hi), 3) for lo, hi in ranges))


# ----------------------------------------------------------------------
# grid_checks: CLI commands run in-process
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CliOp:
    argv: Tuple[str, ...]
    kind: str  # eval, diff, or a check kind
    f: Fn
    g: Optional[Fn] = None
    a: float = 0.0
    b: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    p: float = 2.0
    t: float = 0.0
    points: int = 0  # grid points one integral of an inequality check reads


def cli_op(kind, f, g=None, a=0.0, b=0.0, alpha=0.0, beta=0.0, p=2.0, t=0.0,
           as_json=False) -> CliOp:
    """Build an op and the argument vector a user would type for it."""
    if kind == "eval":
        argv = ["eval", "--expr", f.text]
    elif kind == "diff":
        argv = ["diff", "--expr", f.text, "--t", repr(t)]
    else:
        argv = ["check", "--kind", kind, "--f", f.text]
        if g is not None:
            argv += ["--g", g.text]
    if kind == "diff":
        if alpha:
            argv += ["--alpha", repr(alpha)]
        if beta:
            argv += ["--beta", repr(beta)]
    else:
        argv += ["--a", repr(a), "--b", repr(b), "--alpha", repr(alpha), "--beta", repr(beta)]
    if kind in ("holder", "minkowski"):
        argv += ["--p", repr(p)]
    if as_json:
        argv.append("--json")
    points = 0
    if kind in ("cs", "holder", "minkowski", "mvt", "comparison"):
        points = sum(round((b - a) / s) for s in (alpha, beta) if s > 0.0)
    return CliOp(tuple(argv), kind, f, g, a, b, alpha, beta, p, t, points=points)


GRID_KINDS = ("eval", "diff", "cs", "holder", "minkowski", "mvt", "comparison", "ibp", "ftc")
GRID_SIZES = (150, 450, 1000)  # grid points one integral reads, both sides, before jitter
FTC_SIZES = (50, 80, 110)  # ftc_residuals is quadratic in its grid


def grid_checks_ops(seed: int) -> list:
    """Every kind meets every template at two of the three size strata, the
    pair cycling with kind and template so that every kind and every
    template meets every stratum; the second expression, the step shape and
    the exponent cycle with the stratum.  So the seed moves coefficients,
    steps, endpoints and order but not the work."""
    rng = random.Random(seed)
    ops = []
    for k, kind in enumerate(GRID_KINDS):
        sizes = FTC_SIZES if kind == "ftc" else GRID_SIZES
        for i, name in enumerate(FAMILY):
            for j in ((i + k) % 3, (i + k + 1) % 3):
                other = FAMILY[(i + j + 1) % len(FAMILY)]
                ops.append(_grid_op(rng, kind, name, other, sizes[j], j))
    rng.shuffle(ops)
    return ops


def _grid_op(rng: random.Random, kind: str, name: str, other: str, size: int,
             shape: int) -> CliOp:
    """shape 0: beta = alpha; 1: beta = 2 * alpha; 2: forward side only."""
    f = random_fn(rng, name)
    as_json = rng.random() < 0.5
    alpha = rng.choice((0.25, 0.5, 1.0))
    if kind == "diff":
        t = round(rng.uniform(0.0, 20.0), 3)
        beta = rng.choice((0.25, 0.5, 1.0))
        return cli_op("diff", f, t=t, alpha=alpha if shape != 1 else 0.0,
                      beta=beta if shape != 2 else 0.0, as_json=as_json)
    total = size + rng.randrange(-size // 20, size // 20 + 1)
    if kind in ("ftc", "ibp") or shape == 2:
        beta, n = 0.0, total
    elif shape == 0:
        beta, n = alpha, total // 2
    else:  # an even n keeps b on the backward grid
        beta, n = 2 * alpha, 2 * (total // 3)
    a = rng.randrange(0, 9) / 4
    b = a + n * alpha
    g = None
    if kind == "comparison":
        g = Fn("dominating", (round(rng.uniform(0.1, 1.0), 3),), f)
    elif kind not in ("eval", "ftc"):
        g = random_fn(rng, other)
    return cli_op(kind, f, g, a, b, alpha, beta, (1.5, 2.0, 3.0)[shape], as_json=as_json)


def _sym(h, a, b, alpha, beta):
    """Telescoped symmetric integral of h on aligned endpoints: the value
    and the same sum over |h|, which scales the rounding allowance."""
    value, scale, total = [], [], alpha + beta
    for step, start, sign in ((alpha, a, 1.0), (beta, b, -1.0)):
        if step > 0.0:
            values = [h(start + sign * k * step) for k in range(round((b - a) / step))]
            weight = step / total * step
            value.append(weight * math.fsum(values))
            scale.append(weight * math.fsum(map(abs, values)))
    return math.fsum(value), math.fsum(scale)


def _sampled(op: CliOp) -> list:
    points = []
    if op.alpha > 0.0:
        points += [op.a + k * op.alpha for k in range(round((op.b - op.a) / op.alpha) + 1)]
    if op.beta > 0.0:
        points += [op.b - k * op.beta for k in range(round((op.b - op.a) / op.beta) + 1)]
    return points


def cli_oracle(op: CliOp) -> dict:
    """Expected result fields, each as (value, scale of the terms behind it)."""
    f = op.f.twin()
    g = op.g.twin() if op.g is not None else None
    a, b, al, be, p = op.a, op.b, op.alpha, op.beta, op.p
    integral = lambda h: _sym(h, a, b, al, be)
    if op.kind == "eval":
        return {"value": integral(f)}
    if op.kind == "diff":
        t, span = op.t, al + be
        upper = f(t + al) if al else f(t)
        lower = f(t - be) if be else f(t)
        return {"value": ((upper - lower) / span, (abs(upper) + abs(lower)) / span)}
    if op.kind in ("cs", "holder"):
        p = 2.0 if op.kind == "cs" else p
        q = p / (p - 1.0)
        prod = integral(lambda t: abs(f(t) * g(t)))[0]
        fp = integral(lambda t: abs(f(t)) ** p)[0]
        gq = integral(lambda t: abs(g(t)) ** q)[0]
        rhs = math.sqrt(fp * gq) if op.kind == "cs" else fp ** (1.0 / p) * gq ** (1.0 / q)
        return {"lhs": (prod, prod), "rhs": (rhs, rhs)}
    if op.kind == "minkowski":
        total = integral(lambda t: abs(f(t) + g(t)) ** p)[0] ** (1.0 / p)
        rhs = integral(lambda t: abs(f(t)) ** p)[0] ** (1.0 / p) + \
            integral(lambda t: abs(g(t)) ** p)[0] ** (1.0 / p)
        return {"lhs": (total, total), "rhs": (rhs, rhs)}
    if op.kind == "comparison":
        fi, fs = integral(f)
        gi = integral(g)[0]
        return {"lhs": (abs(fi), fs), "rhs": (gi, gi)}
    if op.kind == "mvt":
        weighted, ws = integral(lambda t: f(t) * g(t))
        weight = integral(g)[0]
        values = [f(t) for t in _sampled(op)]
        return {"K": (weighted / weight, ws / weight), "m": (min(values), abs(min(values))),
                "M": (max(values), abs(max(values)))}
    return {}  # ftc and ibp: the identities hold exactly; only rounding remains


def parse_cli_output(text: str) -> Tuple[str, dict]:
    """Status and result fields from the CLI's text or single-line JSON report."""
    text = text.strip()
    if text.startswith("{"):
        report = json.loads(text)
        return report["status"], report["result"] or {}
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            try:
                fields[key] = json.loads(value)
            except ValueError:
                fields[key] = value
    return fields.pop("status", "?"), fields


def grade_cli(op: CliOp, outcome, expected: dict) -> Tuple[str, str]:
    """Every op in the CLI mixes is valid and mathematically sound: expect exit 0."""
    if isinstance(outcome, BaseException):
        return WRONG, f"raised {type(outcome).__name__}: {outcome}"
    code, out = outcome
    if code == 2:
        return FAILED, f"exit 2: {out.strip()[-300:]}"
    if code != 0:
        return WRONG, f"exit {code}: {out.strip()[-300:]}"
    status, result = parse_cli_output(out)
    if status != "ok":
        return WRONG, f"status {status!r} with exit 0"
    for key, (want, scale) in expected.items():
        got = result.get(key)
        allowed = REL_TOL * max(abs(want), scale)
        if not isinstance(got, float) or abs(got - want) > allowed:
            return WRONG, f"{key} = {got!r}, oracle {want!r}"
    if op.kind in ("cs", "holder", "minkowski", "comparison") and result.get("holds") is not True:
        return WRONG, "inequality reported as violated"
    if op.kind == "eval" and result.get("mode_used") != "telescoped":
        return WRONG, f"aligned eval resolved to {result.get('mode_used')!r}"
    if op.kind == "mvt" and result.get("degenerate") is not False:
        return WRONG, "positive weight reported as degenerate"
    residuals = {"ftc": ("r1", "r2"), "ibp": ("residual",)}.get(op.kind, ())
    for key in residuals:
        if not 0.0 <= result.get(key, -1.0) <= CHECK_TOL:
            return WRONG, f"{key} = {result.get(key)!r} above check_tol"
    return OK, ""


def run_cli_in_process(lib, op: CliOp):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = lib.cli.main(list(op.argv))
    except SystemExit as exc:  # argparse rejects a usage error this way
        code = exc.code
    return code, out.getvalue()


# ----------------------------------------------------------------------
# strict_series: library calls on plain Python callables
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesOp:
    family: str  # geometric, algebraic, constant, reciprocal
    side: str  # forward, backward, both
    c: float  # scale of a geometric or constant integrand
    rate: float  # decay rate of a geometric integrand
    a: float
    b: float
    alpha: float
    beta: float
    mode: str
    tol: float
    max_terms: int = 1_000_000


def integrand(op: SeriesOp):
    """The plain Python callable a library user would pass."""
    c, rate = op.c, op.rate
    if op.family == "geometric":
        if op.side == "forward":
            return lambda t: c * math.exp(-rate * t)
        if op.side == "backward":
            return lambda t: c * math.exp(rate * t)
        return lambda t: c * math.exp(-rate * abs(t))
    if op.family == "algebraic":  # step-matched, so each series telescopes to 1/x
        if op.side == "forward":
            h = op.alpha
            return lambda t: 1.0 / (t * (t + h))
        h = op.beta
        return lambda t: 1.0 / (t * (t - h))
    if op.family == "constant":
        return lambda t: c
    return lambda t: 1.0 / t


def segmented(f, marks: list):
    """f, reading the clock into marks after every SEGMENT_CALLS-th call.

    An op of up to 10^6 terms lasts longer than the host's quiet stretches;
    split at fixed amounts of work, its segments can each be timed at their
    fastest repetition."""
    clock, calls = time.perf_counter_ns, 0

    def counted(t):
        nonlocal calls
        calls += 1
        if not calls % SEGMENT_CALLS:
            marks.append(clock())
        return f(t)

    return counted


def _span_for(rng, step, mode):
    """Interval length; off the grid for auto mode, so each side takes the strict route."""
    whole = rng.randint(1, 5)
    frac = rng.uniform(0.2, 0.8) if mode == "auto" else rng.choice((0.0, rng.uniform(0.0, 1.0)))
    return (whole + frac) * step


def _series_op(rng, family, side, step, tol, c=1.0, rate=0.0):
    mode = "strict" if side == "both" else rng.choice(("strict", "auto"))
    if side == "forward":
        a = rng.uniform(0.5, 2.0)
        b = a + _span_for(rng, step, mode)
        steps = (step, 0.0)
    elif side == "backward":
        b = rng.uniform(-2.0, -0.5)
        a = b - _span_for(rng, step, mode)
        steps = (0.0, step)
    else:
        a = rng.uniform(0.0, 1.5)
        b = a + rng.uniform(0.5, 1.5)
        steps = (step, step * rng.uniform(0.7, 1.3))
    return SeriesOp(family, side, c, rate, a, b, steps[0], steps[1], mode, tol)


LIGHT_REPEATS = 3  # each op of the light tiers runs this often per pass
SEGMENT_CALLS = 4096  # integrand calls per timed segment of an op


def strict_series_ops(seed: int) -> list:
    """100 distinct ops in four tiers (see bench/DESIGN.md).  Step sizes are
    stratified, so the seed moves endpoints, scales, sides and order but
    hardly the number of terms each tier sums.  The five heavy ops take
    about six sevenths of the time of one run of each op; the 95 light ops
    run LIGHT_REPEATS times per pass, at shuffled places, so that they are
    timed more often and weigh more in the pass."""
    rng = random.Random(seed)
    strata = lambda n, lo, hi: [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    ops = []
    for i, decay in enumerate(strata(40, 0.25, 0.35)):  # ~10^2 terms per series
        rate = rng.uniform(0.5, 2.0)
        side = ("forward", "backward", "both")[i % 3]
        ops.append(_series_op(rng, "geometric", side, decay / rate, 1e-12,
                              c=rng.uniform(0.5, 2.0), rate=rate))
    for i, step in enumerate(strata(20, 0.5, 2.0)):  # divergent after 1,072 terms
        ops.append(_series_op(rng, "constant", ("forward", "backward")[i % 2], step,
                              rng.choice((1e-6, 1e-9, 1e-12)), c=rng.uniform(0.5, 2.0)))
    for i, step in enumerate(strata(35, 0.8, 1.25)):  # ~5,000 terms per series
        ops.append(_series_op(rng, "algebraic", ("forward", "backward")[i % 2], step, 1e-4))
    ops *= LIGHT_REPEATS
    sides = ("forward", "backward")
    ops += [
        _series_op(rng, "algebraic", "forward", 1.0, 1e-5),  # ~5*10^4 terms
        _series_op(rng, "algebraic", "backward", 1.0, 1e-5),
        _series_op(rng, "algebraic", rng.choice(sides), 1.0, 1e-6),  # ~5*10^5 terms
        _series_op(rng, "reciprocal", rng.choice(sides), 1.0, 1e-6),  # the whole term cap
        # Integrable, but the tail model cannot reach tol within the cap.
        _series_op(rng, "algebraic", rng.choice(sides), 0.5, 1e-7),
    ]
    rng.shuffle(ops)
    return ops


def _forward_sum(h, x, step):
    """step * sum_k h(x + k*step) for a term sequence that decays past its peak."""
    terms, k = [], 0
    while True:
        v = h(x + k * step)
        terms.append(v)
        if x + k * step > 0.0 and abs(v) < 1e-30:
            return step * math.fsum(terms)
        k += 1


def series_oracle(op: SeriesOp) -> Optional[float]:
    """The integral's true value, or None when a series diverges."""
    if op.family in ("constant", "reciprocal"):
        return None
    if op.family == "algebraic":
        return 1.0 / op.a - 1.0 / op.b
    c, r = op.c, op.rate
    if op.side == "forward":
        s = op.alpha
        return s * c * (math.exp(-r * op.a) - math.exp(-r * op.b)) / -math.expm1(-r * s)
    if op.side == "backward":
        s = op.beta
        return s * c * (math.exp(r * op.b) - math.exp(r * op.a)) / -math.expm1(-r * s)
    h = integrand(op)
    mirror = lambda t: h(-t)
    fwd = _forward_sum(h, op.a, op.alpha) - _forward_sum(h, op.b, op.alpha)
    bwd = _forward_sum(mirror, -op.b, op.beta) - _forward_sum(mirror, -op.a, op.beta)
    w = op.alpha + op.beta
    return op.alpha / w * fwd + op.beta / w * bwd


def grade_series(op: SeriesOp, outcome, expected: Optional[float]) -> Tuple[str, str]:
    if expected is None:
        if isinstance(outcome, BaseException):
            if type(outcome).__name__ == "NotIntegrableError":
                return OK, ""
            return WRONG, f"raised {type(outcome).__name__}, expected NotIntegrableError"
        return WRONG, f"value {outcome.value!r} for a non-integrable input"
    if isinstance(outcome, BaseException):
        return FAILED, f"{type(outcome).__name__}: {outcome}"
    # Each of the (up to four) series is converged to within tol.
    allowed = 2.0 * op.tol + 1e-12 * max(1.0, abs(expected))
    if abs(outcome.value - expected) > allowed:
        return WRONG, f"value {outcome.value!r}, oracle {expected!r}"
    return OK, ""


# ----------------------------------------------------------------------
# Workload objects used by bench/run.py
# ----------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self):
        self._expected = {}
        # Clock readings execute() takes during an op; run.py clears the
        # list before each op and splits the op's latency at them.
        self.marks = []

    def expected(self, op):
        if op not in self._expected:
            self._expected[op] = self.oracle(op)
        return self._expected[op]

    def grade(self, op, outcome):
        return self.grader(op, outcome, self.expected(op))


class GridChecks(Workload):
    name = "grid_checks"
    make_ops = staticmethod(grid_checks_ops)
    oracle = staticmethod(cli_oracle)
    grader = staticmethod(grade_cli)

    def execute(self, lib, op, tracer):
        return run_cli_in_process(lib, op)


class StrictSeries(Workload):
    name = "strict_series"
    make_ops = staticmethod(strict_series_ops)
    oracle = staticmethod(series_oracle)
    grader = staticmethod(grade_series)

    def execute(self, lib, op, tracer):
        pkg = lib.norlund
        return lib.integrals.symmetric_integral(
            segmented(integrand(op), self.marks), op.a, op.b, pkg.StepPair(op.alpha, op.beta), pkg.IntegralMode(op.mode),
            pkg.SeriesConfig(tol=op.tol, max_terms=op.max_terms))


WORKLOADS = {w.name: w for w in (GridChecks, StrictSeries)}
