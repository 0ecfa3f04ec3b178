"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and
prints a PASS/FAIL line (visible with pytest -s).  Randomized suites
are seeded, so every run checks the same instances.
"""

import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

from norlund import (
    IntegralMode,
    SeriesConfig,
    StepPair,
    Verdict,
    cauchy_schwarz_check,
    ftc_residuals,
    holder_check,
    integration_by_parts_residual,
    minkowski_check,
    mvt_constant,
    symmetric_integral,
    sum_series,
)
from norlund.expr import parse, format as format_expr

from conftest import (
    draw_decay_function,
    draw_forward_interval,
    draw_pole_pair_function,
    draw_symmetric_interval,
)
from test_expr import _random_tree

GOLDEN = Path(__file__).parent / "golden"

# Frozen 10^7-term brute-force partial sum of 1/(1+2k)^2, computed with
# exactly rounded summation (math.fsum) over k = 0 .. 9_999_999.
ODD_SQUARES_PARTIAL_10M = 1.2337005251361697


def _criterion(number: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _run_cli(*args):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "norlund", *args], capture_output=True, text=True
    )
    return proc, time.monotonic() - start


def test_criterion_01_reference_eval():
    base = ["eval", "--expr", "1/t^2", "--a", "1", "--b", "3", "--alpha", "2", "--beta", "2"]
    target = 10.0 / 9.0
    results = {}
    slowest = 0.0
    for label, extra in (
        ("auto", []),
        ("telescoped", ["--mode", "telescoped"]),
        # the polynomial tail cannot reach the default 1e-12 estimate in a
        # desk-scale term budget, so the strict run sets a reachable tol;
        # both endpoint series settle, and b = 3 lies on both grids, so each
        # side's value is its grid's finite sum, exact up to rounding
        ("strict", ["--mode", "strict", "--tol", "1e-4"]),
    ):
        proc, elapsed = _run_cli(*base, *extra, "--json")
        slowest = max(slowest, elapsed)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        results[label] = json.loads(proc.stdout)["result"]["value"]
    ok = (
        abs(results["auto"] - target) <= 1e-12
        and abs(results["telescoped"] - target) <= 1e-12
        and abs(results["strict"] - target) <= 1e-9
        and slowest < 1.0
    )
    _criterion(
        1,
        "eval of 1/t^2 on [1,3] with steps (2,2) returns 10/9",
        ok,
        f"strict err {abs(results['strict'] - target):.2e}, slowest run {slowest:.2f}s",
    )


def test_criterion_02_ftc_suite():
    rng = random.Random(1002)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        iv = draw_forward_interval(rng)
        f = draw_decay_function(rng, iv)
        r1, r2 = ftc_residuals(f, iv.a, iv.b, iv.alpha)
        worst = max(worst, r1, r2)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _criterion(
        2,
        "fundamental-theorem residuals <= 1e-9 on 200 decay instances",
        ok,
        f"worst {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_integration_by_parts_suite():
    rng = random.Random(1003)
    worst = 0.0
    for _ in range(200):
        iv = draw_forward_interval(rng)
        f = draw_decay_function(rng, iv)
        g = draw_decay_function(rng, iv)
        worst = max(worst, integration_by_parts_residual(f, g, iv.a, iv.b, iv.alpha))
    hand = integration_by_parts_residual(lambda t: t, lambda t: t, 0.0, 2.0, 1.0)
    ok = worst <= 1e-9 and hand <= 1e-12
    _criterion(
        3,
        "integration-by-parts residuals <= 1e-9 on 200 instances, hand case exact",
        ok,
        f"worst {worst:.2e}, hand {hand:.2e}",
    )


def test_criterion_04_inequality_suite():
    rng = random.Random(1004)
    start = time.monotonic()
    exponents = (1.5, 2.0, 3.0, 10.0)
    failures = 0
    for index in range(1000):
        iv = draw_symmetric_interval(rng)
        steps = StepPair(iv.alpha, iv.beta)
        f = draw_decay_function(rng, iv)
        g = draw_decay_function(rng, iv)
        for p in exponents:
            if not holder_check(f, g, iv.a, iv.b, steps, p=p).holds:
                failures += 1
            if not minkowski_check(f, g, iv.a, iv.b, steps, p=p).holds:
                failures += 1
        if not cauchy_schwarz_check(f, g, iv.a, iv.b, steps).holds:
            failures += 1

    witness_worst = 0.0
    for _ in range(100):
        iv = draw_symmetric_interval(rng)
        steps = StepPair(iv.alpha, iv.beta)
        f = draw_decay_function(rng, iv)
        for p in exponents:
            g = lambda t: abs(f(t)) ** (p - 1.0)
            report = holder_check(f, g, iv.a, iv.b, steps, p=p)
            witness_worst = max(witness_worst, report.margin / report.rhs)
    elapsed = time.monotonic() - start
    ok = failures == 0 and witness_worst <= 1e-8 and elapsed < 60.0
    _criterion(
        4,
        "Holder/Cauchy-Schwarz/Minkowski hold on 1000 instances; equality witness sharp",
        ok,
        f"failures {failures}, witness margin {witness_worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_05_mode_agreement():
    rng = random.Random(1005)
    cfg = SeriesConfig(tol=1e-3)
    worst_excess = -math.inf
    for _ in range(200):
        iv = draw_symmetric_interval(rng)
        steps = StepPair(iv.alpha, iv.beta)
        f = draw_pole_pair_function(rng, iv)
        telescoped = symmetric_integral(f, iv.a, iv.b, steps, IntegralMode.TELESCOPED)
        strict = symmetric_integral(f, iv.a, iv.b, steps, IntegralMode.STRICT, cfg)
        tail_forward = sum(s.tail_estimate for s in strict.forward_diag)
        tail_backward = sum(s.tail_estimate for s in strict.backward_diag)
        bound = tail_forward + tail_backward + 1e-10 * abs(telescoped.value)
        worst_excess = max(worst_excess, abs(strict.value - telescoped.value) - bound)
    ok = worst_excess <= 0.0
    _criterion(
        5,
        "strict and telescoped values agree within combined tail estimates, 200 instances",
        ok,
        f"worst excess over bound {worst_excess:.2e}",
    )


def test_criterion_06_h_calculus_reduction():
    rng = random.Random(1006)
    mismatches = 0
    for _ in range(100):
        iv = draw_forward_interval(rng)
        f = draw_decay_function(rng, iv)
        n = iv.k_forward
        direct = iv.alpha * sum(f(iv.a + k * iv.alpha) for k in range(n))
        value = symmetric_integral(f, iv.a, iv.b, StepPair(iv.alpha, 0.0)).value
        if value != direct:
            mismatches += 1
    _criterion(
        6,
        "with beta=0 the symmetric integral is bit-identical to the direct h-sum, 100 instances",
        mismatches == 0,
        f"mismatches {mismatches}",
    )


def test_criterion_07_series_oracle():
    worst_geometric = 0.0
    for tenths in range(1, 10):
        r = tenths / 10.0
        result = sum_series(lambda k: r**k, SeriesConfig(tol=1e-12))
        assert result.verdict is Verdict.CONVERGED
        worst_geometric = max(worst_geometric, abs(result.value - 1.0 / (1.0 - r)))

    # Run the full 10^7 terms the brute-force oracle used; the estimated
    # tail for this polynomial decay cannot reach 1e-12, so the verdict
    # is a truncation report while the value matches the oracle.
    heavy = sum_series(
        lambda k: 1.0 / (1.0 + 2.0 * k) ** 2, SeriesConfig(tol=1e-12, max_terms=10**7)
    )
    heavy_error = abs(heavy.value - ODD_SQUARES_PARTIAL_10M)
    ok = worst_geometric <= 1e-12 and heavy_error <= 1e-8
    _criterion(
        7,
        "geometric sums match 1/(1-r) to 1e-12; odd-squares sum matches 10^7-term oracle to 1e-8",
        ok,
        f"geometric worst {worst_geometric:.2e}, oracle diff {heavy_error:.2e}",
    )


def test_criterion_08_mean_value_suite():
    rng = random.Random(1008)
    violations = 0
    for _ in range(200):
        iv = draw_symmetric_interval(rng)
        steps = StepPair(iv.alpha, iv.beta)
        f = draw_decay_function(rng, iv)
        g = draw_decay_function(rng, iv, nonneg=True)
        report = mvt_constant(f, g, iv.a, iv.b, steps)
        if report.degenerate:
            continue
        if not (report.m - 1e-9 <= report.K <= report.M + 1e-9):
            violations += 1

    degenerate = mvt_constant(
        lambda t: 1.0 / (t * t), lambda t: 0.0, 1.0, 3.0, StepPair(2.0, 2.0)
    )
    weighted = symmetric_integral(
        lambda t: 0.0 * (1.0 / (t * t)), 1.0, 3.0, StepPair(2.0, 2.0)
    ).value
    ok = violations == 0 and degenerate.degenerate and abs(weighted) <= 1e-12
    _criterion(
        8,
        "mean value constant bracketed by grid extrema on 200 instances; degenerate branch zero",
        ok,
        f"violations {violations}",
    )


def test_criterion_09_parser_round_trip():
    rng = random.Random(1009)
    mismatches = 0
    for _ in range(10_000):
        tree = _random_tree(rng, rng.randrange(1, 8))
        if parse(format_expr(tree)) != tree:
            mismatches += 1
    fixtures_ok = (
        format_expr(parse("1+2*3")) == "1+2*3"
        and parse("1+2*3").op == "+"
        and parse("2^t^2").right.op == "^"
        and type(parse("-t^2")).__name__ == "Neg"
    )
    ok = mismatches == 0 and fixtures_ok
    _criterion(
        9,
        "10^4 random ASTs round-trip through format/parse; precedence fixtures hold",
        ok,
        f"mismatches {mismatches}",
    )


def test_criterion_10_cli_contract():
    cases = [
        (
            "eval_reference.json",
            0,
            ["eval", "--expr", "1/t^2", "--a", "1", "--b", "3",
             "--alpha", "2", "--beta", "2", "--json"],
        ),
        (
            "eval_not_integrable.json",
            2,
            ["eval", "--expr", "1", "--a", "0", "--b", "1", "--alpha", "1", "--beta", "0",
             "--mode", "strict", "--json"],
        ),
        (
            "check_cauchy_schwarz.json",
            0,
            ["check", "--kind", "cs", "--f", "1", "--g", "t", "--a", "0", "--b", "3",
             "--alpha", "1", "--beta", "1", "--json"],
        ),
        (
            "check_ftc_failed.json",
            1,
            ["check", "--kind", "ftc", "--f", "1/t^2", "--a", "1", "--b", "5",
             "--alpha", "2", "--check-tol", "1e-30", "--json"],
        ),
    ]
    problems = []
    for golden_name, expected_code, args in cases:
        proc, _ = _run_cli(*args)
        if proc.returncode != expected_code:
            problems.append(f"{golden_name}: exit {proc.returncode} != {expected_code}")
            continue
        if proc.stdout != (GOLDEN / golden_name).read_text():
            problems.append(f"{golden_name}: output drifted from golden file")
            continue
        report = json.loads(proc.stdout)
        if sorted(report) != ["command", "diagnostics", "inputs", "result", "status"]:
            problems.append(f"{golden_name}: schema fields changed")
    ok = not problems
    _criterion(
        10,
        "CLI exit codes 0/1/2 and JSON schema match the golden files",
        ok,
        "; ".join(problems) if problems else "4 cases",
    )
