"""Spans and counters around norlund's public entry points, recorded from outside.

A traced pass replaces each entry point in ENTRY_POINTS, as the module that
calls it binds the name, with a wrapper that keeps a span in memory: name,
start, end, parent span and op id.  Expression evaluation runs once per grid
point, too often to keep one span per call, so each call is timed and counted
as a leaf whose time and count are charged to the span that made it.
A module's self time is its span time minus the time its child spans cover.

Counts come from public results (terms_used, verdict, mode_used, alignment.k1)
and from counters on the callables the benchmark hands to norlund.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

# (module whose binding is replaced, public name it binds)
ENTRY_POINTS = (
    ("norlund.cli", "main"),
    ("norlund.cli", "symmetric_integral"),
    ("norlund.cli", "ftc_residuals"),
    ("norlund.cli", "integration_by_parts_residual"),
    ("norlund.cli", "holder_check"),
    ("norlund.cli", "cauchy_schwarz_check"),
    ("norlund.cli", "minkowski_check"),
    ("norlund.cli", "comparison_check"),
    ("norlund.cli", "mvt_constant"),
    ("norlund.cli", "forward_difference"),
    ("norlund.cli", "backward_difference"),
    ("norlund.cli", "symmetric_difference"),
    ("norlund.expr", "parse"),
    ("norlund.inequalities", "symmetric_integral"),
    ("norlund.integrals", "symmetric_integral"),
    ("norlund.integrals", "forward_integral"),
    ("norlund.integrals", "backward_integral"),
    ("norlund.integrals", "forward_difference"),
    ("norlund.integrals", "sum_series"),
)
EVALUATE = ("norlund.expr", "evaluate")  # a leaf: one call per grid point

# Fields of a span record.
NAME, MODULE, START, END, PARENT, OP, CHILD_NS, EVALS = range(8)

# Per-layer metrics: name, unit, better.
LAYER_METRICS = (
    ("expr.evals", "count", "lower"),
    ("expr.ns_per_eval", "ns", "lower"),
    ("expr.self_s", "s", "lower"),
    ("expr.parse_s", "s", "lower"),
    ("series.calls", "count", "lower"),
    ("series.terms", "count", "lower"),
    ("series.ns_per_term", "ns", "lower"),
    ("series.self_s", "s", "lower"),
    ("series.converged_ratio", "ratio", "higher"),
    ("series.terms_unconverged", "count", "lower"),
    ("integrals.calls", "count", "lower"),
    ("integrals.strict_sides", "count", "lower"),
    ("integrals.telescoped_sides", "count", "higher"),
    ("integrals.grid_points", "count", "lower"),
    ("integrals.integrand_calls", "count", "lower"),
    ("integrals.self_s", "s", "lower"),
    ("integrals.ftc_evals", "count", "lower"),
    ("integrals.ftc_s", "s", "lower"),
    ("inequalities.calls", "count", "lower"),
    ("inequalities.evals_per_point", "evals/point", "lower"),
    ("inequalities.self_s", "s", "lower"),
    ("operators.difference_calls", "count", "lower"),
    ("operators.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)
# Metrics made of counts alone, which two runs of one seed must reproduce.
EXACT_METRICS = frozenset(name for name, unit, _ in LAYER_METRICS
                          if unit not in ("s", "ns") and not name.startswith("trace."))


class BenchError(Exception):
    """The benchmark cannot run here, or disagrees with itself."""


def _module_of(fn) -> str:
    return fn.__module__.rpartition(".")[2]


class Tracer:
    """Spans and counts of one traced pass.  install() before the pass,
    uninstall() after it, then summary()."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = Counter()
        self.ns = Counter()
        self.evaluate = [0, 0]  # calls, ns
        self.integrand_calls = [0]
        self._restore = []

    def install(self) -> None:
        try:
            for point in ENTRY_POINTS + (EVALUATE,):
                module = importlib.import_module(point[0])
                fn = getattr(module, point[1])
                self._restore.append((module, point[1], fn))
                setattr(module, point[1], self._leaf(fn) if point == EVALUATE else self._span(fn))
        except (ImportError, AttributeError) as exc:
            self.uninstall()
            raise BenchError(f"traced entry point is gone, the traced run cannot "
                             f"attribute its layer: {exc}") from None

    def uninstall(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def _span(self, fn):
        module = _module_of(fn)
        name = f"{module}.{fn.__name__}"
        pre = post = None
        if fn.__name__ in ("forward_integral", "backward_integral"):
            pre, post = self._count_integrand, self._side
        elif fn.__name__ == "sum_series":
            post = self._series
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter_ns, self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, module, 0, 0, parent, tracer.op, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            if pre is not None:
                args = pre(args)
            outcome = None
            rec[START] = clock()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                end = rec[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_NS] += end - rec[START]
                if post is not None:
                    try:
                        post(outcome)
                    except AttributeError as exc:  # a public result lost a field
                        raise BenchError(f"cannot count {name}: {exc}") from None

        return traced

    def _leaf(self, fn):
        """fn, timed and counted without a span of its own."""
        stats, spans, stack, clock = self.evaluate, self.spans, self.stack, time.perf_counter_ns

        def timed(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                stats[0] += 1
                stats[1] += elapsed
                if stack:
                    rec = spans[stack[-1]]
                    rec[CHILD_NS] += elapsed
                    rec[EVALS] += 1

        return timed

    def _count_integrand(self, args):
        f, cell = args[0], self.integrand_calls

        def counted(t):
            cell[0] += 1
            return f(t)

        return (counted,) + args[1:]

    def _side(self, outcome) -> None:
        if isinstance(outcome, Exception):
            if type(outcome).__name__ == "NotIntegrableError":  # only the strict route raises it
                self.counts["integrals.strict_sides"] += 1
        elif outcome.mode_used.value == "telescoped":
            self.counts["integrals.telescoped_sides"] += 1
            self.counts["integrals.grid_points"] += outcome.alignment.k1
        else:
            self.counts["integrals.strict_sides"] += 1

    def _series(self, outcome) -> None:
        if isinstance(outcome, Exception):
            return
        self.counts["series.terms"] += outcome.terms_used
        if outcome.verdict.value == "converged":
            self.counts["series.converged"] += 1
        else:
            self.counts["series.terms_unconverged"] += outcome.terms_used

    def summary(self):
        """Counts (exact, must repeat) and times in ns for the pass."""
        counts, ns, spans = Counter(self.counts), Counter(self.ns), self.spans
        counts["integrals.integrand_calls"] += self.integrand_calls[0]
        evals = [rec[EVALS] for rec in spans]
        for i in range(len(spans) - 1, -1, -1):  # parents precede their children
            if spans[i][PARENT] >= 0:
                evals[spans[i][PARENT]] += evals[i]
        for i, (name, module, start, end, parent, _, child_ns, _) in enumerate(spans):
            ns["self." + module] += end - start - child_ns
            if parent < 0 or spans[parent][MODULE] != module:
                counts[module + ".calls"] += 1
                if module == "inequalities":
                    counts["inequalities.evals"] += evals[i]
            if name == "integrals.ftc_residuals":
                counts["integrals.ftc_evals"] += evals[i]
                ns["integrals.ftc"] += end - start
            elif name == "expr.parse":
                ns["expr.parse"] += end - start
            elif module == "operators":
                counts["operators.difference_calls"] += 1
        counts["expr.evals"] += self.evaluate[0]
        ns["expr.evaluate"] += self.evaluate[1]
        ns["self.expr"] += self.evaluate[1]
        return dict(counts), dict(ns)

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for name, _, start, end, parent, op, child_ns, evals in self.spans:
                out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                      "parent": parent, "op": op, "child_ns": child_ns,
                                      "evals": evals}) + "\n")


def layer_metrics(counts: dict, ns: dict) -> dict:
    """Per-layer values of one traced pass, before the trace.* rows."""
    c = lambda key: counts.get(key, 0)
    sec = lambda key: ns.get(key, 0) / 1e9
    per = lambda num, den: num / den if den else 0.0  # 0 when nothing was counted
    evals, terms, calls = c("expr.evals"), c("series.terms"), c("series.calls")
    return {
        "expr.evals": evals,
        "expr.ns_per_eval": per(ns.get("expr.evaluate", 0), evals),
        "expr.self_s": sec("self.expr"),
        "expr.parse_s": sec("expr.parse"),
        "series.calls": calls,
        "series.terms": terms,
        "series.ns_per_term": per(ns.get("self.series", 0), terms),
        "series.self_s": sec("self.series"),
        "series.converged_ratio": per(c("series.converged"), calls),
        "series.terms_unconverged": c("series.terms_unconverged"),
        "integrals.calls": c("integrals.calls"),
        "integrals.strict_sides": c("integrals.strict_sides"),
        "integrals.telescoped_sides": c("integrals.telescoped_sides"),
        "integrals.grid_points": c("integrals.grid_points"),
        "integrals.integrand_calls": c("integrals.integrand_calls"),
        "integrals.self_s": sec("self.integrals"),
        "integrals.ftc_evals": c("integrals.ftc_evals"),
        "integrals.ftc_s": sec("integrals.ftc"),
        "inequalities.calls": c("inequalities.calls"),
        "inequalities.evals_per_point": per(c("inequalities.evals"), c("inequalities.grid_points")),
        "inequalities.self_s": sec("self.inequalities"),
        "operators.difference_calls": c("operators.difference_calls"),
        "operators.self_s": sec("self.operators"),
        "cli.self_s": sec("self.cli"),
    }
