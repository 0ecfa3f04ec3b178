"""Command-line front end.

Three subcommands: `eval` computes the two-sided symmetric integral of
an expression, `diff` computes a difference quotient, and `check` runs
one of the identity or inequality verifiers.  Output is key = value
text or, with --json, a single-line JSON report with the fields
command, inputs, result, status and diagnostics.  Exit codes: 0 ok,
1 check failed, 2 error.  All configuration is via flags; numbers are
printed in shortest round-trip form.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum

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

__all__ = ["RunReport", "Status", "build_parser", "main"]

_CHECK_KINDS = ("holder", "cs", "minkowski", "mvt", "comparison", "ftc", "ibp")


class Status(Enum):
    OK = "ok"
    CHECK_FAILED = "check_failed"
    ERROR = "error"

    @property
    def exit_code(self) -> int:
        return {"ok": 0, "check_failed": 1, "error": 2}[self.value]


@dataclass
class RunReport:
    """One command's report; result is a library result, a dict or None."""

    command: str
    inputs: dict
    result: object
    status: Status
    diagnostics: list = field(default_factory=list)


def _json_default(value):
    """The JSON encoding of what json does not encode itself.

    An enum becomes its value and a dataclass its fields in declaration
    order; json encodes what they hold, so one json.dumps call encodes a
    whole report.  Anything else raises TypeError.
    """
    if isinstance(value, Enum):
        return value.value
    return {f.name: getattr(value, f.name) for f in fields(value)}


def build_parser() -> argparse.ArgumentParser:
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
    pc.add_argument("--g", default=None, help="second expression where applicable")
    pc.add_argument("--a", type=_finite_float, required=True)
    pc.add_argument("--b", type=_finite_float, required=True)
    pc.add_argument("--alpha", type=_finite_float, default=0.0)
    pc.add_argument("--beta", type=_finite_float, default=0.0)
    pc.add_argument("--p", type=_finite_float, default=2.0, help="Holder/Minkowski exponent (> 1)")
    # declared here so that a report's inputs, read from the parsed
    # namespace in declaration order, keep their key order
    pc.add_argument("--kind", required=True, choices=_CHECK_KINDS)
    _add_mode_flags(pc)
    pc.add_argument(
        "--check-tol",
        type=_nonnegative_float,
        default=1e-9,
        help="largest residual accepted by the ftc and ibp checks",
    )
    pc.add_argument("--json", action="store_true")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call."""
    return build_parser()


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
    sub.add_argument("--tol", type=_positive_float, default=1e-12, help="series tail tolerance")
    sub.add_argument("--max-terms", type=int, default=1_000_000, help="term cap of any sum")


def _function(text: str):
    return functools.partial(expr_mod.evaluate, expr_mod.parse(text))


def _series_config(args) -> SeriesConfig:
    return SeriesConfig(tol=args.tol, max_terms=args.max_terms)


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


def _verdict(holds: bool) -> Status:
    return Status.OK if holds else Status.CHECK_FAILED


def _cmd_eval(args) -> tuple:
    f = _function(args.expr)
    steps = StepPair(args.alpha, args.beta)
    result = symmetric_integral(
        f, args.a, args.b, steps, IntegralMode(args.mode), _series_config(args)
    )
    return result, Status.OK, _integral_diagnostics(result)


def _cmd_diff(args) -> tuple:
    f = _function(args.expr)
    if args.alpha is not None and args.beta is not None:
        kind = "symmetric"
        value = symmetric_difference(f, args.t, StepPair(args.alpha, args.beta))
    elif args.alpha is not None:
        kind = "forward"
        value = forward_difference(f, args.t, args.alpha)
    elif args.beta is not None:
        kind = "backward"
        value = backward_difference(f, args.t, args.beta)
    else:
        raise ValueError("diff needs --alpha, --beta, or both")
    return {"kind": kind, "value": value}, Status.OK, []


def _cmd_check(args) -> tuple:
    f = _function(args.f)
    cfg = _series_config(args)
    if args.kind == "ftc":
        r1, r2 = ftc_residuals(f, args.a, args.b, args.alpha, cfg)
        result = {"r1": r1, "r2": r2, "check_tol": args.check_tol}
        return result, _verdict(max(r1, r2) <= args.check_tol), []

    if args.g is None:
        raise ValueError(f"the {args.kind} check needs --g")
    g = _function(args.g)
    if args.kind == "ibp":
        residual = integration_by_parts_residual(f, g, args.a, args.b, args.alpha, cfg)
        result = {"residual": residual, "check_tol": args.check_tol}
        return result, _verdict(residual <= args.check_tol), []

    steps = StepPair(args.alpha, args.beta)
    mode = IntegralMode(args.mode)
    if args.kind == "mvt":
        report = mvt_constant(f, g, args.a, args.b, steps, mode, cfg)
    elif args.kind == "holder":
        report = holder_check(f, g, args.a, args.b, steps, args.p, mode, cfg)
    elif args.kind == "cs":
        report = cauchy_schwarz_check(f, g, args.a, args.b, steps, mode, cfg)
    elif args.kind == "minkowski":
        report = minkowski_check(f, g, args.a, args.b, steps, args.p, mode, cfg)
    else:
        report = comparison_check(f, g, args.a, args.b, steps, mode, cfg)
    return report, _verdict(report.holds), []


# Each command returns the result, status and diagnostics of its report.
_COMMANDS = {"eval": _cmd_eval, "diff": _cmd_diff, "check": _cmd_check}


def _emit(report: RunReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, default=_json_default))
        return
    lines = [f"command = {report.command}"]
    result = report.result
    if result is not None:
        if not isinstance(result, dict):
            result = _json_default(result)
        for key, value in result.items():
            if value is None:
                continue
            lines.append(f"{key} = {json.dumps(value, default=_json_default)}")
    for note in report.diagnostics:
        lines.append(f"note: {note}")
    lines.append(f"status = {report.status.value}")
    print("\n".join(lines))


def main(argv: list | None = None) -> int:
    args = _parser().parse_args(argv)
    inputs = {key: value for key, value in vars(args).items() if key not in ("command", "json")}
    try:
        result, status, diagnostics = _COMMANDS[args.command](args)
    except (NorlundError, ValueError) as exc:
        result, status, diagnostics = None, Status.ERROR, [f"{type(exc).__name__}: {exc}"]
    report = RunReport(args.command, inputs, result, status, diagnostics)
    _emit(report, args.json)
    return report.status.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
