"""Every metric of every workload, by name and unit, from one command.

    python3 bench/report.py [--seed N] [--seconds S]

For each workload this runs bench/run.py once untraced and twice traced with
the same seed, checks that the two traced runs agree on every count, and
prints one row per workload: first the end-to-end metrics beside the
attempted and failed op counts, then the per-layer metrics, one table per
module.  It exits 1 if a run could not finish, an output was wrong, or a
count did not repeat.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from spans import EXACT_METRICS, LAYER_METRICS
from workloads import ROOT, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
TIMEOUT_S = 900


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def table(title: str, columns: list, rows: list) -> None:
    widths = [max(len(str(x)) for x in col) for col in zip(columns, *rows)]
    print(f"\n{title}")
    for line in [columns] + rows:
        print("  ".join(str(x).rjust(w) for x, w in zip(line, widths)))


def fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.4g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args()

    plain, traced, problems = {}, {}, []
    for name in WORKLOADS:
        plain[name] = run(name, args.seed, args.seconds, 0)
        first, second = (run(name, args.seed, args.seconds, 1) for _ in range(2))
        traced[name] = first
        for metric in sorted(EXACT_METRICS):
            a, b = first["metrics"][metric]["value"], second["metrics"][metric]["value"]
            if a != b:
                problems.append(f"{name}: {metric} is {a} in one traced run and {b} in the other")
        problems += [f"{name}: an output was wrong" for r in (plain[name], first, second)
                     if not r["correct"]]

    e2e = next(iter(plain.values()))["metrics"]
    columns = ["workload", "attempted", "failed", "failed_ratio"] + \
        [f"{m} [{v['unit']}]" for m, v in e2e.items()]
    rows = [[name, r["attempted"], r["failed"], fmt(r["failed"] / r["attempted"])] +
            [fmt(r["metrics"][m]["value"]) for m in e2e] for name, r in plain.items()]
    table(f"end to end (seed {args.seed}; latencies are each op's fastest repetition, "
          "percentiles over the ops of one pass)", columns, rows)

    modules = dict.fromkeys(m.partition(".")[0] for m, _, _ in LAYER_METRICS)
    for module in modules:
        names = [(m, u) for m, u, _ in LAYER_METRICS if m.startswith(module + ".")]
        table(f"per layer: {module} (per pass of the traced run)",
              ["workload"] + [f"{m} [{u}]" for m, u in names],
              [[w] + [fmt(r["metrics"][m]["value"]) for m, _ in names] for w, r in traced.items()])
    for problem in problems:
        print(f"\nPROBLEM: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
