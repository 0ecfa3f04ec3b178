"""The CLI at the edges of what it accepts, and the names the traced
benchmark wraps."""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from norlund import cli
from norlund.cli import main
from norlund.expr import Bin, Call, Const, Neg, Num, Var
from norlund.expr import format as format_expr

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


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_a_command_out_of_memory_is_an_error_naming_the_budget(monkeypatch, capsys, as_json):
    # Exit 1 means a check failed; running out of memory is an error, exit 2.
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "check", exhausted)
    argv = ["check", "--kind", "holder", "--f", "t", "--g", "t", "--a", "0", "--b", "2e7",
            "--alpha", "1", "--max-terms", "30000000"]
    assert main(argv + ["--json"] * as_json) == 2
    note = "MemoryError: out of memory within the --max-terms 30000000 budget"
    out = capsys.readouterr().out
    if as_json:
        report = json.loads(out)
        assert (report["status"], report["result"], report["diagnostics"]) == ("error", None, [note])
    else:
        assert out.splitlines() == ["command = check", f"note: {note}", "status = error"]


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


def test_the_cli_imports_no_dataclasses_inspect_or_typing():
    # -S keeps site hooks from importing them first; the package's own path is put back.
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})\n"
        "before = set(sys.modules)\n"
        "import norlund.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
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
TEXTS = ["t", "1", "0", "1/t", "exp(t)", "sqrt(t)", "ln(t)", "t^2", "sin(t)", "1/(1+t^2)",
         "exp(-t)", "pow(t, 3)"]
# Hypothesis draws the first of a list most often, so the lists below put
# first what sends a result towards overflow: 1e200, whose square overflows.
LEAVES = st.one_of(st.just(Var()), st.sampled_from([Const("pi"), Const("e")]),
                   st.sampled_from([1e200, 0.5, 2.0]).map(Num))


def deeper(sub):
    """Trees of the grammar one operator deeper than sub's, or leaves."""
    return st.one_of(
        LEAVES,
        sub.map(Neg),
        st.builds(Bin, st.sampled_from("+-*/^"), sub, sub),
        st.builds(lambda name, x: Call(name, (x,)),
                  st.sampled_from(("abs", "exp", "ln", "sqrt", "sin", "cos")), sub),
        st.builds(lambda x, y: Call("pow", (x, y)), sub, sub),
    )


TREES = [LEAVES]  # TREES[depth]: trees at most depth operators deep
for _ in range(4):
    TREES.append(deeper(TREES[-1]))
# a formatted tree of depth at most 4, the shallowest twice as often, or a fixed text
EXPRESSIONS = st.one_of(
    st.sampled_from([TREES[0], TREES[0], TREES[1], TREES[1], *TREES[2:]])
    .flatmap(lambda trees: trees).map(format_expr),
    st.sampled_from(TEXTS),
)
# small enough that no command starts heavy work, invalid ones included
MAX_TERMS = st.one_of(st.integers(min_value=-2, max_value=300), st.sampled_from([1000, 10**4]))
RARELY = st.sampled_from([True] + [False] * 7)
# numbers that every flag accepts
POINTS = st.sampled_from([1e200, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0])
STEPS = st.sampled_from([0.25, 0.5, 1.0, 2.0])
EXPONENTS = st.sampled_from([1.5, 2.0, 3.0])
TOLS = st.sampled_from([1e-9, 1e-6, 1e-3])
TERMS = st.sampled_from([300, 2000])


def flag(name, value):
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


@st.composite
def argument_vectors(draw, operation):
    """An argument vector for operation: eval, diff or a check kind."""
    command = operation if operation in ("eval", "diff") else "check"
    # Half the draws, drawn first, take numbers that every flag accepts, so
    # that they reach the library with the drawn expressions.
    valid = not draw(st.booleans())
    point, step = (POINTS, STEPS) if valid else (NUMBERS, POSITIVE)
    rarely = st.just(False) if valid else RARELY
    argv = [command]
    if command == "diff":
        argv += [f"--expr={draw(EXPRESSIONS)}", flag("t", draw(point))]
        for name in ("alpha", "beta"):
            if name == "alpha" and valid or draw(st.booleans()):
                argv.append(flag(name, draw(step)))
    else:
        if command == "eval":
            argv += [f"--expr={draw(EXPRESSIONS)}"]
            reads = ("beta", "mode")
        else:
            kind, reads = operation, cli._CHECKS[operation][0]
            f = draw(EXPRESSIONS)
            argv += ["--kind", kind, f"--f={f}"]
            # A flag the kind does not read is refused: draw it only now and then.
            if "g" in reads or draw(rarely):
                argv.append(f"--g={draw(st.one_of(st.just(f), EXPRESSIONS))}")
            if "p" in reads or draw(rarely):
                argv.append(flag("p", draw(EXPONENTS if valid else NUMBERS)))
            if "check_tol" in reads or draw(rarely):
                argv.append(flag("check-tol", draw(TOLS if valid else POSITIVE)))
        a = draw(point)
        b = draw(st.one_of(step.map(lambda span: a + span), st.just(a), point))
        argv += [flag("a", a), flag("b", b), flag("alpha", draw(step))]
        if "beta" in reads or draw(rarely):
            argv.append(flag("beta", draw(st.one_of(st.just(0.0), step))))
        argv.append(flag("tol", draw(TOLS if valid else st.one_of(TOLS, POSITIVE))))
        if "mode" in reads or draw(rarely):
            argv += ["--mode", draw(st.sampled_from(["auto", "strict", "telescoped"]))]
        argv.append(flag("max-terms", draw(TERMS if valid else MAX_TERMS)))
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("operation", ["eval", "diff", *cli._CHECKS])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_ends_in_an_exit_code_for_any_numbers(operation, data):
    argv = data.draw(argument_vectors(operation), label="argv")
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
    # Every number printed is strict JSON, with no NaN or Infinity: the whole
    # report in JSON mode, each value line's value in text mode.
    if "--json" in argv and out.getvalue():
        json.loads(out.getvalue(), parse_constant=_reject)
    for line in out.getvalue().splitlines()[1:-1]:
        if not line.startswith("note: "):
            json.loads(line.partition(" = ")[2], parse_constant=_reject)
