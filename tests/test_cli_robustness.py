"""The CLI at the edges of what it accepts, and the names the traced
benchmark wraps."""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from norlund.cli import main

ROOT = Path(__file__).resolve().parents[1]
CHAIN = "+".join(["t"] * 1_000)


def test_eval_on_an_unbounded_grid_is_an_error():
    proc = subprocess.run(
        [sys.executable, "-m", "norlund", "eval", "--expr", "t", "--a", "0", "--b", "1e300",
         "--alpha", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout.splitlines()[1] == (
        "note: GridBudgetError: the grid from 0.0 to 1e+300 with step 1.0 has 1e+300 points, "
        "more than the term cap max_terms=1000000"
    )
    assert "Traceback" not in proc.stderr


def test_traced_entry_points_resolve_on_a_fresh_import():
    # bench/spans.py is read, not changed: every binding it wraps must exist.
    script = (
        "import importlib, runpy\n"
        "spans = runpy.run_path('bench/spans.py')\n"
        "points = spans['ENTRY_POINTS'] + (spans['EVALUATE'],)\n"
        "missing = [p for p in points if not hasattr(importlib.import_module(p[0]), p[1])]\n"
        "print(len(points), missing)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    count, _, missing = proc.stdout.strip().partition(" ")
    assert int(count) >= 20
    assert missing == "[]"


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "norlund", *args], capture_output=True,
                          text=True, timeout=60)


@pytest.mark.parametrize(
    "args, note",
    [
        (["eval", "--expr", "(" * 300 + "t" + ")" * 300, "--a", "0", "--b", "1", "--alpha", "1"],
         "note: ExprSyntaxError: syntax error at offset 100: expected an expression nested "
         "at most 100 levels deep, found '('"),
        (["eval", "--expr", CHAIN, "--a", "0", "--b", "1", "--alpha", "1"],
         "note: ExprSyntaxError: syntax error at offset 0: expected an expression nested "
         "at most 100 levels deep, found '1000 levels'"),
        (["check", "--kind", "cs", "--f", CHAIN, "--g", "1", "--a", "0", "--b", "1",
          "--alpha", "1"],
         "note: ExprSyntaxError: syntax error at offset 0: expected an expression nested "
         "at most 100 levels deep, found '1000 levels'"),
    ],
    ids=["nested-parentheses", "eval-long-chain", "check-long-chain"],
)
def test_expressions_too_deep_are_usage_errors(args, note):
    proc = _run_cli(*args)
    assert proc.returncode == 2
    assert note in proc.stdout.splitlines()
    assert "Traceback" not in proc.stderr


def test_sine_of_an_infinite_value_is_a_domain_fault(capsys):
    # the upper point t + alpha is read first
    code = main(["diff", "--expr", "sin(t*1e308*10)", "--t", "1", "--alpha", "1"])
    assert code == 2
    assert ("note: DomainFaultError: domain fault at t=2.0: sine or cosine of an infinite value"
            in capsys.readouterr().out.splitlines())


def test_a_number_flag_that_is_not_a_number_is_a_usage_error():
    proc = _run_cli("eval", "--expr", "t", "--a", "abc", "--b", "1", "--alpha", "1")
    assert proc.returncode == 2
    assert "argument --a: invalid float value: 'abc'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_the_cli_imports_only_the_standard_library():
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import norlund.cli\n"
        "allowed = sys.stdlib_module_names | {'norlund'}\n"
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] not in allowed))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# Fuzzing every numeric flag
# ----------------------------------------------------------------------

MODEST = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 10.0]),
    st.floats(min_value=-20.0, max_value=20.0),
    st.integers(min_value=-20, max_value=20),
)
EDGES = st.one_of(
    st.floats(),  # with inf, nan, -0.0, subnormals and the largest floats
    st.integers(min_value=-(10**20), max_value=10**20),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.7976931348623157e308,
                     1e-300, 1e300, 10**6, 2**53]),
)
NUMBERS = st.one_of(MODEST, MODEST, EDGES)
# steps and tolerances: mostly valid, so that most draws reach the library
POSITIVE = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 1e-3, 1e-9]), NUMBERS.map(abs),
                     NUMBERS)
EXPRESSIONS = st.sampled_from(["t", "1", "0", "1/t", "exp(t)", "sqrt(t)", "ln(t)", "t^2",
                               "sin(t)", "1/(1+t^2)", "exp(-t)", "pow(t, 3)"])
# small enough that no command starts heavy work, invalid ones included
MAX_TERMS = st.one_of(st.integers(min_value=-2, max_value=300), st.sampled_from([1000, 10**4]))


def flag(name, value):
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


@st.composite
def argument_vectors(draw):
    command = draw(st.sampled_from(["eval", "diff", "check"]))
    argv = [command]
    if command == "diff":
        argv += ["--expr", draw(EXPRESSIONS), flag("t", draw(NUMBERS))]
        for name in ("alpha", "beta"):
            if draw(st.booleans()):
                argv.append(flag(name, draw(POSITIVE)))
    else:
        if command == "eval":
            argv += ["--expr", draw(EXPRESSIONS)]
        else:
            kind = draw(st.sampled_from(["holder", "cs", "minkowski", "mvt", "comparison",
                                         "ftc", "ibp"]))
            argv += ["--kind", kind, "--f", draw(EXPRESSIONS), "--g", draw(EXPRESSIONS),
                     flag("p", draw(NUMBERS)), flag("check-tol", draw(POSITIVE))]
        a = draw(NUMBERS)
        b = draw(st.one_of(NUMBERS, POSITIVE.map(lambda span: a + span)))
        argv += [flag("a", a), flag("b", b)]
        argv += [flag(name, draw(POSITIVE)) for name in ("alpha", "beta")]
        argv.append(flag("tol", draw(st.one_of(st.sampled_from([1e-9, 1e-6, 1e-3]), POSITIVE))))
        argv += ["--mode", draw(st.sampled_from(["auto", "strict", "telescoped"])),
                 flag("max-terms", draw(MAX_TERMS))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argument_vectors())
def test_cli_ends_in_an_exit_code_for_any_numbers(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error from argparse
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code != 0 or "--json" in argv:
        assert out.getvalue() or err.getvalue()
