"""Command-line front end.

Three subcommands: `eval` computes the two-sided symmetric integral of
an expression, `diff` computes a difference quotient, and `check` runs
one of the identity or inequality verifiers.  Output is key = value
text or, with --json, a single-line JSON report with the fields
command, inputs, result, status and diagnostics.  Exit codes: 0 ok,
1 check failed, 2 error.  All configuration is via flags; numbers are
printed in shortest round-trip form, and a result number that is not
finite, at any depth, is an error naming its field.  Each check kind
is one row of _CHECKS: the check flags it reads, beside its library
call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from enum import Enum

from ._record import Record
from .errors import NorlundError
from .inequalities import (
    cauchy_schwarz_check,
    comparison_check,
    holder_check,
    minkowski_check,
    mvt_constant,
)
from .integrals import IntegralMode, ftc_residuals, integration_by_parts_residual, symmetric_integral
from .operators import StepPair, backward_difference, forward_difference, symmetric_difference
from .series import SeriesConfig
from . import expr as expr_mod

__all__ = ["build_parser", "main"]

# The check flags some kinds do not read, with their defaults: a kind given
# one it does not read is refused, naming the first in this order.
_CHECK_DEFAULTS = {"g": None, "beta": 0.0, "p": 2.0, "mode": "auto", "check_tol": 1e-9}

# A report's status and the exit code it ends in.
_EXIT_CODES = {"ok": 0, "check_failed": 1, "error": 2}


def _json_default(value):
    """The JSON encoding of what json does not encode itself.

    An enum becomes its value and a record its fields in declaration
    order; json encodes what they hold, so one json.dumps call encodes a
    whole report.  Anything else raises TypeError.
    """
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Record):
        return {name: getattr(value, name) for name in value.__match_args__}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def build_parser() -> argparse.ArgumentParser:
    return _build()[0]


def _build() -> tuple:
    """The full parser and, by command, the parser it hands that command's
    arguments to."""
    parser = argparse.ArgumentParser(
        prog="norlund",
        description="Two-step symmetric Norlund-sum calculus: integrals, "
        "difference quotients and inequality checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="symmetric integral of an expression in t")
    pe.add_argument("--expr", required=True, help="integrand, e.g. '1/t^2'")
    pe.add_argument("--a", type=_finite_float, required=True)
    pe.add_argument("--b", type=_finite_float, required=True)
    pe.add_argument("--alpha", type=_finite_float, default=0.0, help="forward step (>= 0)")
    pe.add_argument("--beta", type=_finite_float, default=0.0, help="backward step (>= 0)")
    _add_mode_flags(pe)
    pe.add_argument("--json", action="store_true", help="emit a single-line JSON report")

    pd = sub.add_parser("diff", help="difference quotient of an expression in t")
    pd.add_argument("--expr", required=True)
    pd.add_argument("--t", type=_finite_float, required=True)
    pd.add_argument("--alpha", type=_finite_float, default=None)
    pd.add_argument("--beta", type=_finite_float, default=None)
    pd.add_argument("--json", action="store_true")

    pc = sub.add_parser("check", help="run an identity or inequality verifier")
    pc.add_argument("--f", required=True, help="first expression")
    pc.add_argument("--g", default=_CHECK_DEFAULTS["g"], help="second expression where applicable")
    pc.add_argument("--a", type=_finite_float, required=True)
    pc.add_argument("--b", type=_finite_float, required=True)
    pc.add_argument("--alpha", type=_finite_float, default=0.0)
    pc.add_argument("--beta", type=_finite_float, default=_CHECK_DEFAULTS["beta"])
    pc.add_argument(
        "--p",
        type=_finite_float,
        default=_CHECK_DEFAULTS["p"],
        help="Holder/Minkowski exponent (> 1)",
    )
    # declared here so that a report's inputs, read from the parsed
    # namespace in declaration order, keep their key order
    pc.add_argument("--kind", required=True, choices=tuple(_CHECKS))
    _add_mode_flags(pc)
    pc.add_argument(
        "--check-tol",
        type=_nonnegative_float,
        default=_CHECK_DEFAULTS["check_tol"],
        help="largest residual accepted by the ftc and ibp checks",
    )
    pc.add_argument("--json", action="store_true")
    return parser, {"eval": pe, "diff": pd, "check": pc}


@functools.cache
def _parsers() -> tuple:
    """The parsers main uses, built on its first call."""
    return _build()


def _parse(argv: list | None) -> argparse.Namespace:
    """argv parsed as the full parser parses it, in one pass where it can:
    a vector that starts with a command goes to that command's parser
    alone, as the full parser hands it over, and any other vector, or one
    that leaves arguments unrecognised, to the full parser."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        args, unrecognised = commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not unrecognised:
            return args
    return parser.parse_args(argv)


def _finite_float(text: str) -> float:
    """A point, step or exponent: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _nonnegative_float(text: str) -> float:
    """A tolerance: a finite float that is not negative."""
    value = _finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """A series tolerance: a finite float above zero."""
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _add_mode_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mode", choices=("strict", "telescoped", "auto"), default="auto")
    sub.add_argument(
        "--tol", type=_positive_float, default=SeriesConfig.tol, help="series tail tolerance"
    )
    sub.add_argument(
        "--max-terms", type=int, default=SeriesConfig.max_terms, help="term cap of any sum"
    )


def _function(text: str):
    tree = expr_mod.parse(text)  # its function of t offers the column form too
    f = functools.partial(expr_mod.evaluate, tree)
    f.column = functools.partial(expr_mod.evaluate_column, tree)
    return f


def _integral_diagnostics(result) -> list:
    notes = []
    if result.alignment is not None:
        notes.append(f"alignment: k1={result.alignment.k1}")
    for side, diag in (("forward", result.forward_diag), ("backward", result.backward_diag)):
        if diag is not None:
            notes.append(
                f"{side} strict series: terms=({diag[0].terms_used}, {diag[1].terms_used}), "
                f"tails=({diag[0].tail_estimate!r}, {diag[1].tail_estimate!r})"
            )
    return notes


def _cmd_eval(args) -> tuple:
    f = _function(args.expr)
    steps = StepPair(args.alpha, args.beta)
    cfg = SeriesConfig(tol=args.tol, max_terms=args.max_terms)
    result = symmetric_integral(f, args.a, args.b, steps, IntegralMode(args.mode), cfg)
    return result, "ok", _integral_diagnostics(result)


def _cmd_diff(args) -> tuple:
    f = _function(args.expr)
    if args.alpha is not None and args.beta is not None:
        kind, value = "symmetric", symmetric_difference(f, args.t, StepPair(args.alpha, args.beta))
    elif args.alpha is not None:
        kind, value = "forward", forward_difference(f, args.t, args.alpha)
    elif args.beta is not None:
        kind, value = "backward", backward_difference(f, args.t, args.beta)
    else:
        raise ValueError("diff needs --alpha, --beta, or both")
    return {"kind": kind, "value": value}, "ok", []


# Per check kind, in --kind's order: the check flags it reads and its run,
# the library call on the parsed flags, f, g (None if unread) and cfg.  A
# kind that reads check_tol runs to its residuals, any other to a report.
_CHECKS = {
    "holder": (("g", "beta", "p", "mode"), lambda args, f, g, cfg: holder_check(
        f, g, args.a, args.b, StepPair(args.alpha, args.beta), args.p, IntegralMode(args.mode),
        cfg)),
    "cs": (("g", "beta", "mode"), lambda args, f, g, cfg: cauchy_schwarz_check(
        f, g, args.a, args.b, StepPair(args.alpha, args.beta), IntegralMode(args.mode), cfg)),
    "minkowski": (("g", "beta", "p", "mode"), lambda args, f, g, cfg: minkowski_check(
        f, g, args.a, args.b, StepPair(args.alpha, args.beta), args.p, IntegralMode(args.mode),
        cfg)),
    "mvt": (("g", "beta", "mode"), lambda args, f, g, cfg: mvt_constant(
        f, g, args.a, args.b, StepPair(args.alpha, args.beta), IntegralMode(args.mode), cfg)),
    "comparison": (("g", "beta", "mode"), lambda args, f, g, cfg: comparison_check(
        f, g, args.a, args.b, StepPair(args.alpha, args.beta), IntegralMode(args.mode), cfg)),
    "ftc": (("check_tol",), lambda args, f, g, cfg: dict(
        zip(("r1", "r2"), ftc_residuals(f, args.a, args.b, args.alpha, cfg)))),
    "ibp": (("g", "check_tol"), lambda args, f, g, cfg: {
        "residual": integration_by_parts_residual(f, g, args.a, args.b, args.alpha, cfg)}),
}


def _cmd_check(args) -> tuple:
    """The check's result and status.  The first flag the kind does not
    read that is off its default is a ValueError, raised after the run, so
    that an error in an input the kind does read is reported first."""
    reads, run = _CHECKS[args.kind]
    f = _function(args.f)
    cfg = SeriesConfig(tol=args.tol, max_terms=args.max_terms)
    if "g" in reads and args.g is None:
        raise ValueError(f"the {args.kind} check needs --g")
    outcome = run(args, f, _function(args.g) if "g" in reads else None, cfg)
    for name, default in _CHECK_DEFAULTS.items():
        if name not in reads and getattr(args, name) != default:
            raise ValueError(f"the {args.kind} check does not use --{name.replace('_', '-')}")
    if "check_tol" not in reads:
        return outcome, "ok" if outcome.holds else "check_failed", []
    holds = max(outcome.values()) <= args.check_tol
    return {**outcome, "check_tol": args.check_tol}, "ok" if holds else "check_failed", []


# Each command returns the result, status and diagnostics of its report.
_COMMANDS = {"eval": _cmd_eval, "diff": _cmd_diff, "check": _cmd_check}


def _render(report: dict, as_json: bool) -> str:
    """The report as one JSON line or as key = value text.  A number that
    is not finite, at any depth, is a ValueError: JSON has no encoding
    for it."""
    dumps = functools.partial(json.dumps, default=_json_default, allow_nan=False)
    if as_json:
        return dumps(report)
    lines = [f"command = {report['command']}"]
    if report["result"] is not None:
        lines += [f"{key} = {dumps(value)}"
                  for key, value in report["result"].items() if value is not None]
    lines += [f"note: {note}" for note in report["diagnostics"]]
    lines.append(f"status = {report['status']}")
    return "\n".join(lines)


def _non_finite(value):
    """The first number in value's encoding that is infinite or NaN, or None."""
    found = []
    json.loads(json.dumps(value, default=_json_default), parse_constant=found.append)
    return float(found[0]) if found else None


def main(argv: list | None = None) -> int:
    args = _parse(argv)
    inputs = {key: value for key, value in vars(args).items() if key not in ("command", "json")}
    try:
        result, status, diagnostics = _COMMANDS[args.command](args)
        result = result if isinstance(result, dict) else _json_default(result)
    except (NorlundError, ValueError) as exc:
        result, status, diagnostics = None, "error", [f"{type(exc).__name__}: {exc}"]
    except MemoryError:  # --max-terms bounds points and terms, not bytes: an error, not a failure
        budget = f" within the --max-terms {args.max_terms} budget" if "max_terms" in inputs else ""
        result, status, diagnostics = None, "error", [f"MemoryError: out of memory{budget}"]
    report = {"command": args.command, "inputs": inputs, "result": result,
              "status": status, "diagnostics": diagnostics}
    try:
        text = _render(report, args.json)
    except ValueError:  # a result number that is not finite: an error naming its field
        key, value = next((key, x) for key, value in result.items()
                          if (x := _non_finite(value)) is not None)
        report.update(result=None, status="error", diagnostics=[
            f"ValueError: the {args.command} result's {key} is not finite ({value!r})"])
        text = _render(report, args.json)
    print(text)
    return _EXIT_CODES[report["status"]]
