import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from norlund.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "norlund", *args],
        capture_output=True,
        text=True,
    )
    return proc


# ----------------------------------------------------------------------
# In-process command behaviour
# ----------------------------------------------------------------------


def test_eval_reference_value(capsys):
    code = main(["eval", "--expr", "1/t^2", "--a", "1", "--b", "3", "--alpha", "2", "--beta", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "value = 1.1111111111111112" in out
    assert "status = ok" in out


def test_eval_zero_function(capsys):
    code = main(["eval", "--expr", "0", "--a", "0", "--b", "5", "--alpha", "1", "--beta", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "value = 0.0" in out


def test_eval_divergent_strict_errors(capsys):
    code = main(
        ["eval", "--expr", "1", "--a", "0", "--b", "1", "--alpha", "1", "--beta", "0",
         "--mode", "strict"]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "NotIntegrableError" in out
    assert "status = error" in out


def test_eval_rejects_two_zero_steps(capsys):
    code = main(["eval", "--expr", "t", "--a", "0", "--b", "1", "--alpha", "0", "--beta", "0"])
    assert code == 2
    assert "status = error" in capsys.readouterr().out


def test_diff_examples(capsys):
    code = main(["diff", "--expr", "abs(t)", "--t", "0", "--alpha", "1", "--beta", "1"])
    out = capsys.readouterr().out
    assert code == 0 and "value = 0.0" in out and '"symmetric"' in out

    code = main(["diff", "--expr", "t^2", "--t", "2", "--alpha", "1"])
    out = capsys.readouterr().out
    assert code == 0 and "value = 5.0" in out and '"forward"' in out

    code = main(["diff", "--expr", "3", "--t", "7", "--beta", "0.5"])
    out = capsys.readouterr().out
    assert code == 0 and "value = 0.0" in out and '"backward"' in out


def test_diff_needs_a_step(capsys):
    code = main(["diff", "--expr", "t", "--t", "0"])
    assert code == 2
    assert "status = error" in capsys.readouterr().out


def test_check_cauchy_schwarz(capsys):
    code = main(
        ["check", "--kind", "cs", "--f", "1", "--g", "t", "--a", "0", "--b", "3",
         "--alpha", "1", "--beta", "1", "--json"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["result"]["lhs"] == 4.5
    assert report["result"]["holds"] is True


def test_check_minkowski_cancellation(capsys):
    # expressions starting with '-' need the --flag=value form
    code = main(
        ["check", "--kind", "minkowski", "--f", "t", "--g=-t", "--a", "0", "--b", "2",
         "--alpha", "1", "--beta", "1", "--p", "2", "--json"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["result"]["lhs"] == 0.0


def test_check_mvt_reference(capsys):
    code = main(
        ["check", "--kind", "mvt", "--f", "1/t^2", "--g", "1", "--a", "1", "--b", "3",
         "--alpha", "2", "--beta", "2", "--json"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(report["result"]["K"] - 5.0 / 9.0) <= 1e-15
    assert report["result"]["m"] == 1.0 / 9.0
    assert report["result"]["M"] == 1.0


def test_check_requires_g_when_applicable(capsys):
    code = main(
        ["check", "--kind", "holder", "--f", "t", "--a", "0", "--b", "2",
         "--alpha", "1", "--beta", "1"]
    )
    assert code == 2


def test_check_bad_exponent(capsys):
    code = main(
        ["check", "--kind", "holder", "--f", "t", "--g", "t", "--a", "0", "--b", "2",
         "--alpha", "1", "--beta", "1", "--p", "1"]
    )
    assert code == 2
    assert "BadExponentError" in capsys.readouterr().out


def test_check_hypothesis_failure(capsys):
    code = main(
        ["check", "--kind", "comparison", "--f", "2", "--g", "1", "--a", "0", "--b", "2",
         "--alpha", "1", "--beta", "1"]
    )
    assert code == 2
    assert "HypothesisFailedError" in capsys.readouterr().out


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["eval", "--a", "1", "--b", "3"])  # missing --expr
    assert err.value.code == 2


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("flag", ["--a", "--b"])
@pytest.mark.parametrize(
    "command",
    [
        ["eval", "--expr", "t", "--alpha", "1"],
        ["check", "--kind", "cs", "--f", "1", "--g", "t", "--alpha", "1"],
        ["check", "--kind", "ftc", "--f", "t", "--alpha", "1"],
    ],
)
def test_non_finite_endpoint_is_a_usage_error(capsys, command, flag, value):
    endpoints = {"--a": "0", "--b": "3", flag: value}
    argv = command + [f"{key}={text}" for key, text in endpoints.items()]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"argument {flag}: must be a finite number, got '{value}'" in capsys.readouterr().err


def test_non_finite_endpoint_exits_two_without_traceback():
    proc = run_cli("eval", "--expr", "t", "--a", "0", "--b", "inf", "--alpha", "1")
    assert proc.returncode == 2
    assert "argument --b: must be a finite number" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bad_expression_is_an_error(capsys):
    code = main(["eval", "--expr", "2^-t", "--a", "0", "--b", "1", "--alpha", "1"])
    assert code == 2
    assert "ExprSyntaxError" in capsys.readouterr().out


# ----------------------------------------------------------------------
# End-to-end contract: golden files, exit codes, numeric formatting
# ----------------------------------------------------------------------

GOLDEN_CASES = [
    (
        "eval_reference.json",
        0,
        ["eval", "--expr", "1/t^2", "--a", "1", "--b", "3", "--alpha", "2", "--beta", "2", "--json"],
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
        ["check", "--kind", "ftc", "--f", "1/t^2", "--a", "1", "--b", "5", "--alpha", "2",
         "--check-tol", "1e-30", "--json"],
    ),
]


@pytest.mark.parametrize("golden_name,expected_code,args", GOLDEN_CASES)
def test_golden_outputs(golden_name, expected_code, args):
    proc = run_cli(*args)
    assert proc.returncode == expected_code
    assert proc.stdout == (GOLDEN / golden_name).read_text()


def test_json_schema_fields():
    proc = run_cli("eval", "--expr", "1/t^2", "--a", "1", "--b", "3",
                   "--alpha", "2", "--beta", "2", "--json")
    assert proc.stdout.count("\n") == 1  # single line
    report = json.loads(proc.stdout)
    assert sorted(report) == ["command", "diagnostics", "inputs", "result", "status"]
    assert report["status"] in ("ok", "check_failed", "error")
    assert isinstance(report["diagnostics"], list)


def test_text_and_json_values_agree_to_full_precision():
    args = ["eval", "--expr", "exp(-t)*t", "--a", "0.5", "--b", "6.5",
            "--alpha", "1.5", "--beta", "2"]
    text = run_cli(*args).stdout
    report = json.loads(run_cli(*args, "--json").stdout)
    value_line = next(line for line in text.splitlines() if line.startswith("value = "))
    text_value = value_line.removeprefix("value = ")
    assert text_value == json.dumps(report["result"]["value"])
    assert float(text_value) == report["result"]["value"]
