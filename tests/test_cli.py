import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from norlund import IntegralMode, IntegralResult, SeriesConfig, SeriesResult, Verdict, cli
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


@pytest.mark.xfail(strict=True, reason="a log-divergent endpoint series settles (ROADMAP item 13)")
def test_a_strict_log_divergent_integrand_is_not_integrable(capsys):
    # sum 1/(n ln n) diverges, so neither endpoint series of 1/(t ln t) has a
    # sum.  Both end settled after 32,784 terms, tails 1.096, and the eval
    # prints value = 0.001088037080067368 with status = ok.
    code = main(["eval", "--expr", "1/(t*ln(t))", "--a", "100", "--b", "100.5", "--alpha", "1",
                 "--mode", "strict", "--tol", "1e-6"])
    out = capsys.readouterr().out
    assert code == 2
    assert "NotIntegrableError" in out


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


def test_diff_with_steps_whose_sum_overflows(capsys):
    code = main(["diff", "--expr", "t", "--t", "0", "--alpha", "1e308", "--beta", "1e308"])
    out = capsys.readouterr().out
    assert code == 0 and "value = 1.0" in out and '"symmetric"' in out


def test_eval_and_check_with_steps_whose_sum_overflows(capsys):
    # Each side is one grid point: 1e308 * 1e-10 forward and backward alike.
    grid = ["--a", "0", "--b", "1e308", "--alpha", "1e308", "--json"]
    assert main(["eval", "--expr", "1e-10", *grid, "--beta", "0"]) == 0
    side = strict_json(capsys.readouterr().out)["result"]["value"]
    assert side == 1e308 * 1e-10
    assert main(["eval", "--expr", "1e-10", *grid, "--beta", "1e308"]) == 0
    assert strict_json(capsys.readouterr().out)["result"]["value"] == side
    assert main(["check", "--kind", "cs", "--f", "1e-10", "--g", "1e-10", *grid,
                 "--beta", "1e308"]) == 0
    report = strict_json(capsys.readouterr().out)
    assert report["result"]["lhs"] == pytest.approx(1e288, rel=1e-12)
    assert report["result"]["rhs"] == pytest.approx(1e288, rel=1e-12)


def test_diff_needs_a_step(capsys):
    code = main(["diff", "--expr", "t", "--t", "0"])
    assert code == 2
    assert "status = error" in capsys.readouterr().out


@pytest.mark.parametrize(
    "step_flags, diagnostic",
    [
        (["--t", "1", "--alpha", "5e-324"],
         "ZeroStepError: forward step 5e-324 does not move t=1.0: it is below t's resolution"),
        (["--t", "1e17", "--beta", "1"],
         "ZeroStepError: backward step 1.0 does not move t=1e+17: it is below t's resolution"),
    ],
)
def test_diff_rejects_a_step_below_the_resolution_of_t(capsys, step_flags, diagnostic):
    code = main(["diff", "--expr", "t", *step_flags, "--json"])
    report = strict_json(capsys.readouterr().out)
    assert code == 2
    assert report["status"] == "error" and report["result"] is None
    assert report["diagnostics"] == [diagnostic]


def test_a_strict_series_with_leading_zeros_is_summed_past_them(capsys):
    # The backward series at 1.3 reads f(1.3) = f(0.3) = 0 before its support.
    f = lambda t: (abs(t) - t) * math.exp(t)  # noqa: E731
    oracle = math.fsum(f(1.3 - k) for k in range(2000)) - math.fsum(f(-0.5 - k) for k in range(2000))
    code = main(["eval", "--expr", "(abs(t)-t)*exp(t)", "--a", "-0.5", "--b", "1.3",
                 "--beta", "1", "--mode", "strict", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(report["result"]["value"] - oracle) <= 1e-12


def test_check_cauchy_schwarz(capsys):
    code = main(
        ["check", "--kind", "cs", "--f", "1", "--g", "t", "--a", "0", "--b", "3",
         "--alpha", "1", "--beta", "1", "--json"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["result"]["lhs"] == 4.5
    assert report["result"]["holds"] is True


def test_cauchy_schwarz_right_side_is_finite_where_the_product_of_its_integrals_overflows(capsys):
    # int f^2 * int g^2 is about 29.6 * 9.5e306, past the largest float;
    # the right side is their square roots' product, equal to the left.
    code = main(["check", "--kind", "cs", "--f=pi", "--g=pow(pow(64.078,pi),27)", "--a", "3",
                 "--b", "6", "--alpha", "1", "--beta", "0.5", "--json"])
    result = strict_json(capsys.readouterr().out)["result"]
    assert code == 0
    assert result["rhs"] == result["lhs"] == 1.6778271127852545e154
    assert result["holds"] is True


def test_eval_reports_a_zero_base_raised_to_minus_infinity_that_a_quotient_would_hide(capsys):
    # At t = -2 the exponent overflows to -inf: 0^-inf is a domain fault,
    # though math.pow returns inf there, whose reciprocal 0 is finite.
    code = main(["eval", "--expr", "1/pow(0,t*1e308*10)", "--a", "-2", "--b", "-1", "--alpha", "1"])
    assert code == 2
    out = capsys.readouterr().out
    assert "DomainFaultError: domain fault at t=-2.0: zero raised to a negative power" in out


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


def test_main_builds_the_parser_at_most_once(monkeypatch, capsys):
    calls = []
    build = cli._build  # the full parser and each command's own

    def counting_build():
        calls.append(None)
        return build()

    monkeypatch.setattr(cli, "_build", counting_build)
    cli._parsers.cache_clear()
    main(["eval", "--expr", "t", "--a", "0", "--b", "2", "--alpha", "1"])
    main(["diff", "--expr", "t", "--t", "0", "--alpha", "1", "--json"])
    main(["check", "--kind", "cs", "--f", "1", "--g", "t", "--a", "0", "--b", "3", "--alpha", "1"])
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["ftc", "ibp"])
def test_ftc_and_ibp_reject_zero_alpha(capsys, kind):
    code = main(["check", "--kind", kind, "--f", "t", "--g", "t", "--a", "0", "--b", "2",
                 "--alpha", "0", "--json"])
    report = strict_json(capsys.readouterr().out)
    assert code == 2
    assert report["diagnostics"] == ["ZeroStepError: alpha must be positive, got 0.0"]


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--expr", "exp(t)", "--a", "700", "--b", "709", "--alpha", "0.1"],
        ["eval", "--expr", "1.7e308*exp(-t)", "--a", "0", "--b", "3", "--alpha", "0.5",
         "--mode", "strict", "--tol", "1e-3"],
        ["check", "--kind", "comparison", "--f", "1", "--g", "exp(t)", "--a", "700",
         "--b", "709", "--alpha", "0.1"],
    ],
    ids=["telescoped", "strict", "comparison"],
)
def test_non_finite_integral_is_an_error(capsys, argv):
    code = main(argv + ["--json"])
    report = strict_json(capsys.readouterr().out)
    assert code == 2
    assert report["status"] == "error"
    assert report["diagnostics"][0].startswith("NonFiniteValueError: ")


def test_non_finite_strict_term_names_its_point(capsys):
    argv = ["eval", "--expr", "1e308", "--a", "0", "--b", "0.5", "--alpha", "10", "--mode", "strict"]
    assert main(argv) == 2
    assert capsys.readouterr().out == (
        "command = eval\n"
        "note: NonFiniteValueError: the forward series term at t=0.0 is non-finite (inf)\n"
        "status = error\n"
    )


@pytest.mark.parametrize(
    "argv, note",
    [
        # The quotient is about -1.1e311.
        (["diff", "--expr", "1.7e308*sin(1000*t)", "--t", "0.0015707963",
          "--alpha", "0.0031415926"],
         "ValueError: the diff result's value is not finite (-inf)"),
        # The rhs is about 1.9e308.
        (["check", "--kind", "minkowski", "--f", "9.5e307", "--g=-9.5e307", "--a", "0",
          "--b", "1", "--alpha", "1", "--p", "1.0001"],
         "ValueError: the check result's rhs is not finite (inf)"),
    ],
    ids=["diff", "minkowski"],
)
def test_a_non_finite_result_is_an_error_naming_its_field(capsys, argv, note):
    assert main(argv + ["--json"]) == 2
    report = strict_json(capsys.readouterr().out)
    assert (report["result"], report["status"], report["diagnostics"]) == (None, "error", [note])
    assert main(argv) == 2
    assert capsys.readouterr().out == f"command = {argv[0]}\nnote: {note}\nstatus = error\n"


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_a_nested_non_finite_number_is_an_error_naming_its_field(capsys, monkeypatch, as_json):
    # A strict series result whose tail estimate is infinite, nested in forward_diag.
    series = SeriesResult(0.5, 40, math.inf, Verdict.CONVERGED)
    result = IntegralResult(0.25, IntegralMode.STRICT, forward_diag=(series, series))
    monkeypatch.setattr(cli, "symmetric_integral", lambda *args, **kwargs: result)
    argv = ["eval", "--expr", "t", "--a", "0", "--b", "1", "--alpha", "0.3"]
    assert main(argv + ["--json"] if as_json else argv) == 2
    out = capsys.readouterr().out
    note = "ValueError: the eval result's forward_diag is not finite (inf)"
    if as_json:
        report = strict_json(out)
        assert (report["result"], report["status"], report["diagnostics"]) == (None, "error", [note])
    else:
        assert out == f"command = eval\nnote: {note}\nstatus = error\n"


def test_unknown_check_kind_lists_the_kinds_in_order(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check", "--kind", "nope", "--f", "t", "--a", "0", "--b", "1"])
    assert err.value.code == 2
    assert (
        "argument --kind: invalid choice: 'nope' (choose from 'holder', 'cs', 'minkowski', "
        "'mvt', 'comparison', 'ftc', 'ibp')"
    ) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "check"])
def test_series_flag_defaults_are_the_series_config_defaults(command):
    sub = {"eval": ["--expr", "t"], "check": ["--kind", "cs", "--f", "t"]}[command]
    args = cli.build_parser().parse_args([command, *sub, "--a", "0", "--b", "1"])
    assert (args.tol, args.max_terms) == (SeriesConfig().tol, SeriesConfig().max_terms)


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["eval", "--a", "1", "--b", "3"])  # missing --expr
    assert err.value.code == 2


NON_FINITE_COMMANDS = [
    ["eval", "--expr", "t", "--alpha", "1", "--a", "0", "--b", "3"],
    ["check", "--kind", "cs", "--f", "1", "--g", "t", "--alpha", "1", "--a", "0", "--b", "3"],
    ["check", "--kind", "ftc", "--f", "t", "--alpha", "1", "--a", "0", "--b", "3"],
    ["diff", "--expr", "t", "--t", "0", "--alpha", "1"],
]
NON_FINITE_FLAGS = {
    0: ["--a", "--b", "--alpha", "--beta", "--tol"],
    1: ["--a", "--b", "--alpha", "--beta", "--p", "--tol"],
    2: ["--a", "--b", "--check-tol", "--tol"],
    3: ["--t", "--alpha", "--beta"],
}


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "command, flag",
    [
        pytest.param(NON_FINITE_COMMANDS[i], flag, id=f"command{i}-{flag}")
        for i, flags in NON_FINITE_FLAGS.items()
        for flag in flags
    ],
)
def test_non_finite_endpoint_is_a_usage_error(capsys, command, flag, value):
    # the last occurrence of a flag is the one argparse keeps
    argv = command + [f"{flag}={value}"]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"argument {flag}: must be a finite number, got '{value}'" in capsys.readouterr().err


def test_negative_check_tol_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check", "--kind", "ftc", "--f", "t", "--a", "0", "--b", "2", "--alpha", "1",
              "--check-tol=-1e-9"])
    assert err.value.code == 2
    assert "argument --check-tol: must not be negative, got '-1e-9'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command", NON_FINITE_COMMANDS[:3], ids=["eval", "cs", "ftc"])
def test_non_positive_tol_is_a_usage_error(capsys, command, value):
    with pytest.raises(SystemExit) as err:
        main(command + [f"--tol={value}"])
    assert err.value.code == 2
    assert f"argument --tol: must be positive, got '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, p, t",
    [("minkowski", "2000", "1.0"), ("holder", "1e308", "2.0")],
)
def test_overflowing_power_is_an_error(capsys, kind, p, t):
    code = main(["check", "--kind", kind, "--f", "t", "--g", "t", "--a", "0", "--b", "3",
                 "--alpha", "1", "--p", p, "--json"])
    report = strict_json(capsys.readouterr().out)
    assert code == 2
    assert report["status"] == "error"
    assert report["diagnostics"] == [
        f"NonFiniteValueError: function value at t={t} is non-finite (inf)"
    ]


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


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def strict_json(line):
    """Parse one report line, refusing NaN and Infinity."""
    return json.loads(line, parse_constant=_reject_constant)


# One line per report shape no golden file covers: the exact --json line
# and text output of the command, as written before any change to the
# report encoding.
REPORT_SHAPES = [
    json.loads(line)
    for line in (Path(__file__).parent / "report_shapes.jsonl").read_text().splitlines()
]


@pytest.mark.parametrize("case", REPORT_SHAPES, ids=[case["id"] for case in REPORT_SHAPES])
def test_report_shapes_are_byte_exact(capsys, case):
    assert main(case["args"] + ["--json"]) == case["exit"]
    out = capsys.readouterr().out
    assert out == case["json"]
    strict_json(out)
    assert main(case["args"]) == case["exit"]
    assert capsys.readouterr().out == case["text"]


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


# ----------------------------------------------------------------------
# Grids finer than their endpoints' resolution; flags a check ignores
# ----------------------------------------------------------------------

FINE_GRID = ["--a", "1e17", "--b", "1.0000000000000002e17", "--alpha", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--kind", "ftc", "--f", "t", *FINE_GRID],
        ["eval", "--expr", "t", *FINE_GRID],
        ["check", "--kind", "cs", "--f", "t", "--g", "1", *FINE_GRID],
        ["check", "--kind", "comparison", "--f", "0", "--g", "1", *FINE_GRID],
    ],
    ids=["ftc", "eval", "cs", "comparison"],
)
def test_grid_step_below_the_endpoints_resolution_is_an_error(capsys, argv):
    code = main(argv + ["--json"])
    report = strict_json(capsys.readouterr().out)
    assert code == 2
    assert report["result"] is None
    assert report["diagnostics"] == [
        "ZeroStepError: grid step 1.0 from 1e+17 to 1.0000000000000002e+17 is below the "
        "endpoints' resolution: its points would coincide"
    ]


def test_sub_resolution_strict_eval_and_empty_interval_still_run(capsys):
    strict = ["eval", "--expr", "0", *FINE_GRID, "--mode", "strict"]
    assert main(strict) == 0
    assert "value = 0.0" in capsys.readouterr().out
    assert main(["eval", "--expr", "t", "--a", "1e17", "--b", "1e17", "--alpha", "1"]) == 0
    assert "value = 0.0" in capsys.readouterr().out


CHECK_RUNS = {
    "ftc": ["--f", "t", "--a", "0", "--b", "2", "--alpha", "1"],
    "ibp": ["--f", "t", "--g", "t", "--a", "0", "--b", "2", "--alpha", "1"],
    "cs": ["--f", "t", "--g", "t", "--a", "0", "--b", "2", "--alpha", "1"],
    "mvt": ["--f", "t", "--g", "1", "--a", "0", "--b", "2", "--alpha", "1"],
    "comparison": ["--f", "0", "--g", "1", "--a", "0", "--b", "2", "--alpha", "1"],
    "holder": ["--f", "t", "--g", "t", "--a", "0", "--b", "2", "--alpha", "1"],
    "minkowski": ["--f", "t", "--g", "t", "--a", "0", "--b", "2", "--alpha", "1"],
}
UNREAD = [
    ("ftc", ["--g", "ln(t)"], "--g"),
    ("ftc", ["--beta", "1"], "--beta"),
    ("ftc", ["--p", "3"], "--p"),
    ("ftc", ["--mode", "strict"], "--mode"),
    ("ibp", ["--beta", "1"], "--beta"),
    ("ibp", ["--p", "5"], "--p"),
    ("ibp", ["--mode", "telescoped"], "--mode"),
    ("cs", ["--p", "3"], "--p"),
    ("cs", ["--check-tol", "1e-3"], "--check-tol"),
    ("mvt", ["--p", "3"], "--p"),
    ("mvt", ["--check-tol", "0"], "--check-tol"),
    ("comparison", ["--p", "1.5"], "--p"),
    ("comparison", ["--check-tol", "1"], "--check-tol"),
    ("holder", ["--check-tol", "1e-3"], "--check-tol"),
    ("minkowski", ["--check-tol", "1e-3"], "--check-tol"),
]


@pytest.mark.parametrize("kind, extra, flag", UNREAD, ids=[f"{k}{f}" for k, _, f in UNREAD])
def test_check_rejects_a_flag_its_kind_does_not_read(capsys, kind, extra, flag):
    code = main(["check", "--kind", kind, *CHECK_RUNS[kind], *extra, "--json"])
    report = strict_json(capsys.readouterr().out)
    assert code == 2
    assert report["diagnostics"] == [f"ValueError: the {kind} check does not use {flag}"]


@pytest.mark.parametrize("kind", sorted(CHECK_RUNS))
def test_check_accepts_unread_flags_at_their_defaults(capsys, kind):
    defaults = ["--beta", "0", "--p", "2", "--mode", "auto", "--check-tol", "1e-9"]
    assert main(["check", "--kind", kind, *CHECK_RUNS[kind], *defaults]) == 0
    assert "status = ok" in capsys.readouterr().out


def test_ibp_flag_misuse_with_a_second_misused_flag_names_the_first(capsys):
    code = main(["check", "--kind", "ibp", *CHECK_RUNS["ibp"], "--beta", "1", "--mode", "strict",
                 "--p", "5"])
    assert code == 2
    assert "note: ValueError: the ibp check does not use --beta" in capsys.readouterr().out


# ----------------------------------------------------------------------
# One-pass argument parsing: main against the full parser's two passes
# ----------------------------------------------------------------------

CS = ["check", "--kind", "cs", "--f", "1", "--g", "t", "--a", "0", "--b", "3", "--alpha", "1"]
EVAL = ["eval", "--expr", "t", "--a", "0", "--b", "2", "--alpha", "1"]
ARGV_CORPUS = [
    EVAL,
    EVAL + ["--beta", "0.5", "--mode", "telescoped", "--tol", "1e-9", "--max-terms", "100",
            "--json"],
    ["diff", "--expr", "t^2", "--t", "2", "--alpha", "1", "--beta", "0.5", "--json"],
    ["check", "--kind", "holder", "--f", "1", "--g", "t", "--a", "0", "--b", "3", "--alpha", "1",
     "--beta", "1", "--p", "3"],
    CS + ["--json"],
    ["check", "--kind", "minkowski", "--f", "1", "--g", "t", "--a", "0", "--b", "3",
     "--alpha", "1", "--p", "3", "--json"],
    ["check", "--kind", "mvt", "--f", "t", "--g", "1", "--a", "0", "--b", "3", "--alpha", "1"],
    ["check", "--kind", "comparison", "--f", "0.5", "--g", "1", "--a", "0", "--b", "3",
     "--alpha", "1", "--beta", "1"],
    ["check", "--kind", "ftc", "--f", "t^2", "--a", "0", "--b", "3", "--alpha", "1",
     "--check-tol", "1e-6"],
    ["check", "--kind", "ibp", "--f", "t", "--g", "t^2", "--a", "0", "--b", "3", "--alpha", "1"],
    [],
    ["-h"],
    ["--help"],
    ["eval", "-h"],
    ["check", "--help"],
    EVAL + ["-h"],
    ["eval", "--expr", "t", "--a", "0", "--b", "2", "--al", "1"],  # an abbreviation
    ["eval", "--expr", "t", "--a", "0", "--b", "2", "--m", "1"],  # an ambiguous one
    CS[:-2] + ["--check", "1e-3"],
    ["eval", "--expr=t", "--a=0", "--b=-2", "--alpha=1"],
    ["eval", "--", "--expr", "t", "--a", "0", "--b", "2", "--alpha", "1"],
    EVAL + ["--"],
    ["--", "eval", "--expr", "t", "--a", "0", "--b", "2"],
    ["integrate", "--expr", "t"],  # an unknown command
    ["evl", "--expr", "t"],
    ["--json", "eval", "--expr", "t", "--a", "0", "--b", "2", "--alpha", "1"],
    EVAL + ["--gamma", "1"],  # an unknown flag
    EVAL + ["stray"],  # a stray positional
    ["stray"] + EVAL,
    EVAL[:-1] + ["one"],  # a bad float
    ["diff", "--expr", "-t", "--t", "0", "--alpha", "1"],
    EVAL + ["--alpha", "0.5"],  # a repeated flag
    ["check", "--kind", "bogus", "--f", "1", "--a", "0", "--b", "1"],
    ["eval", "--a", "0", "--b", "1"],  # a required flag missing
    ["diff", "--expr", "t", "--t", "-1e-3", "--beta", "0.5"],
]


def _main_outcome(argv, capsys):
    """stdout, stderr and exit code of main(argv), a SystemExit's included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out, err = capsys.readouterr()
    return out, err, code


def _full_parse(argv):
    return cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", ARGV_CORPUS, ids=[" ".join(v) or "empty" for v in ARGV_CORPUS])
def test_main_parses_as_the_full_parser_does(monkeypatch, capsys, argv):
    got = _main_outcome(argv, capsys)
    monkeypatch.setattr(cli, "_parse", _full_parse)
    assert got == _main_outcome(argv, capsys)
    monkeypatch.undo()
    try:
        want = list(vars(_full_parse(argv)).items())
    except SystemExit:
        capsys.readouterr()
        return
    assert list(vars(cli._parse(argv)).items()) == want  # a report's inputs keep their key order
