"""Benchmark of norlund: one workload driven by one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: grid_checks and strict_series (bench/DESIGN.md says why each
exists).  A run imports norlund from this checkout's src/, builds
its ops from the seed, and repeats whole passes over them until at least
--seconds have gone by and at least MIN_PASSES passes have run.  Every op is
graded against the oracles in bench/workloads.py.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of bench/spans.py; it
writes the spans of its first traced pass to .bench_out/.  Exit code 2,
with no result line, means the benchmark could not run: no norlund sources
here, a traced entry point is gone, or two traced passes of one seed
disagreed on a count.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import types
from pathlib import Path

from spans import EXACT_METRICS, LAYER_METRICS, BenchError, Tracer, layer_metrics
from workloads import OK, ROOT, SRC, WORKLOADS, WRONG

SETUP_REPEATS = 5  # before the first pass; one more precedes every pass
MIN_PASSES = 3  # each op's fastest repetition is then picked from three or more
MIN_TRACED_PASSES = 2
OUT_DIR = ROOT / ".bench_out"
NOTES_KEPT = 5


def load_library() -> types.SimpleNamespace:
    """Import norlund afresh from this checkout's src/."""
    if not (SRC / "norlund" / "__init__.py").is_file():
        raise BenchError(f"no norlund sources under {SRC}")
    for name in [m for m in sys.modules if m == "norlund" or m.startswith("norlund.")]:
        del sys.modules[name]
    import norlund
    import norlund.cli

    if Path(norlund.__file__).resolve().parent != SRC / "norlund":
        raise BenchError(f"imported norlund from {norlund.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        norlund=norlund, cli=sys.modules["norlund.cli"], integrals=sys.modules["norlund.integrals"])


def set_up(workload, seed: int):
    """A fresh library import plus input generation: what a process does
    before its first op.  Returns the library, the ops and the time taken."""
    gc.collect()  # the previous import's modules are cyclic garbage by now
    start = time.perf_counter()
    lib = load_library()
    ops = workload.make_ops(seed)
    return lib, ops, time.perf_counter() - start


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []


def run_pass(workload, lib, ops, tally: Tally, tracer: Tracer | None = None):
    """One pass over ops, each issued after the previous one completed.
    Returns, per op, its latency in ns split at the clock readings the
    workload took during the op (see Workload.marks), and the number of ops
    graded OK."""
    clock = time.perf_counter_ns
    marks = workload.marks
    latencies, passed = [], 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
            tracer.counts["inequalities.grid_points"] += getattr(op, "points", 0)
        marks.clear()
        start = clock()
        try:
            outcome = workload.execute(lib, op, tracer)
        except BenchError:
            raise
        except Exception as exc:  # an op that raises is an outcome to grade
            outcome = exc
        end = clock()
        bounds = [start, *marks, end]
        latencies.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
        grade, note = workload.grade(op, outcome)
        tally.attempted += 1
        passed += grade == OK
        if grade != OK:
            tally.failed += 1
            tally.wrong += grade == WRONG
            if len(tally.notes) < NOTES_KEPT:
                tally.notes.append(f"{grade}: {op}: {note}")
    return latencies, passed


def pass_ns(latencies) -> int:
    """Total op time of a pass from run_pass's segmented latencies."""
    return sum(map(sum, latencies))


def end_to_end(workload, seed: int, seconds: float, tally: Tally) -> dict:
    """Passes until seconds have gone by; a timed set-up before each pass, so
    that the set-up repeats sample the whole run, not one stretch of it.

    An op's latency is the fastest of its repetitions over the run: on a
    shared host other tenants only ever add time, in stretches from a tenth
    of a second to several seconds, and the passes spread each op's
    repetitions over the whole run.  An op that the workload splits into
    segments takes the fastest repetition of each segment.  Throughput and
    the percentiles come from these per-op latencies, one sample per op of
    the pass (an op that a pass holds twice is two samples)."""
    setups = [set_up(workload, seed)[2] for _ in range(SETUP_REPEATS)]
    passes, passed = [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(passes) < MIN_PASSES:
        lib, ops, elapsed = set_up(workload, seed)
        setups.append(elapsed)
        lat, ok = run_pass(workload, lib, ops, tally)
        passes.append(lat)
        passed += ok
    fastest = {}
    for lat in passes:
        for op, segments in zip(ops, lat):
            best = fastest.setdefault(op, segments)
            if len(best) != len(segments):
                raise BenchError(f"two runs of one op took {len(best)} and {len(segments)} "
                                 f"segments: {op}")
            fastest[op] = tuple(map(min, best, segments))
    best_s = [sum(fastest[op]) / 1e9 for op in ops]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (passed / len(passes) / sum(best_s), "1/s"),
        "latency_p50_s": (statistics.median(best_s), "s"),
        "latency_p90_s": (statistics.quantiles(best_s, n=10, method="inclusive")[8], "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(workload, lib, ops, seed: int, seconds: float, tally: Tally) -> dict:
    """Alternate untraced and traced passes; every traced pass regenerates
    its ops from the seed and must reproduce the first one's counts."""
    untraced, traced, rows = [], [], []
    first = None
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
        untraced.append(pass_ns(run_pass(workload, lib, ops, tally)[0]))
        fresh = workload.make_ops(seed)
        if fresh != ops:
            raise BenchError(f"seed {seed} gave two different op lists")
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(pass_ns(run_pass(workload, lib, fresh, tally, tracer)[0]))
        finally:
            tracer.uninstall()
        counts, ns = tracer.summary()
        if first is None:
            first = (counts, tracer)
        elif counts != first[0]:
            diff = {k: (first[0].get(k), counts.get(k))
                    for k in set(counts) | set(first[0]) if counts.get(k) != first[0].get(k)}
            raise BenchError(f"two traced passes of seed {seed} disagree on counts: {diff}")
        rows.append(layer_metrics(counts, ns))
    OUT_DIR.mkdir(exist_ok=True)
    first[1].dump(OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl")
    values = {name: rows[0][name] if name in EXACT_METRICS else
              statistics.median(row[name] for row in rows) for name in rows[0]}
    values["trace.op_s"] = statistics.median(traced) / 1e9
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return {name: (values[name], unit) for name, unit, _ in LAYER_METRICS}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]()
    tally = Tally()
    lib, ops, _ = set_up(workload, seed)  # fills caches; not counted
    if trace:
        metrics = per_layer(workload, lib, ops, seed, seconds, tally)
    else:
        metrics = end_to_end(workload, seed, seconds, tally)
    for note in tally.notes:
        print(note, file=sys.stderr)
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
