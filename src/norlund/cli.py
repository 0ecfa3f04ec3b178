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
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

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
    command: str
    inputs: dict
    result: Optional[dict]
    status: Status
    diagnostics: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "result": self.result,
            "status": self.status.value,
            "diagnostics": list(self.diagnostics),
        }


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
    pe.add_argument("--alpha", type=float, default=0.0, help="forward step (>= 0)")
    pe.add_argument("--beta", type=float, default=0.0, help="backward step (>= 0)")
    _add_mode_flags(pe)
    pe.add_argument("--json", action="store_true", help="emit a single-line JSON report")

    pd = sub.add_parser("diff", help="difference quotient of an expression in t")
    pd.add_argument("--expr", required=True)
    pd.add_argument("--t", type=float, required=True)
    pd.add_argument("--alpha", type=float, default=None)
    pd.add_argument("--beta", type=float, default=None)
    pd.add_argument("--json", action="store_true")

    pc = sub.add_parser("check", help="run an identity or inequality verifier")
    pc.add_argument("--kind", required=True, choices=_CHECK_KINDS)
    pc.add_argument("--f", required=True, help="first expression")
    pc.add_argument("--g", default=None, help="second expression where applicable")
    pc.add_argument("--a", type=_finite_float, required=True)
    pc.add_argument("--b", type=_finite_float, required=True)
    pc.add_argument("--alpha", type=float, default=0.0)
    pc.add_argument("--beta", type=float, default=0.0)
    pc.add_argument("--p", type=float, default=2.0, help="Holder/Minkowski exponent (> 1)")
    _add_mode_flags(pc)
    pc.add_argument(
        "--check-tol",
        type=float,
        default=1e-9,
        help="largest residual accepted by the ftc and ibp checks",
    )
    pc.add_argument("--json", action="store_true")
    return parser


def _finite_float(text: str) -> float:
    """An interval endpoint: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _add_mode_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mode", choices=("strict", "telescoped", "auto"), default="auto")
    sub.add_argument("--tol", type=float, default=1e-12, help="series tail tolerance")
    sub.add_argument("--max-terms", type=int, default=1_000_000, help="series term cap")


def _function(text: str):
    ast = expr_mod.parse(text)
    return lambda t: expr_mod.evaluate(ast, t)


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


def _known_inputs(args) -> dict:
    inputs = {}
    for key in (
        "expr", "f", "g", "t", "a", "b", "alpha", "beta", "p",
        "kind", "mode", "tol", "max_terms", "check_tol",
    ):
        if hasattr(args, key):
            inputs[key] = getattr(args, key)
    return inputs


def _cmd_eval(args) -> RunReport:
    inputs = _known_inputs(args)
    f = _function(args.expr)
    steps = StepPair(args.alpha, args.beta)
    result = symmetric_integral(
        f, args.a, args.b, steps, IntegralMode(args.mode), _series_config(args)
    )
    return RunReport("eval", inputs, result.to_dict(), Status.OK, _integral_diagnostics(result))


def _cmd_diff(args) -> RunReport:
    inputs = _known_inputs(args)
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
    return RunReport("diff", inputs, {"kind": kind, "value": value}, Status.OK)


def _cmd_check(args) -> RunReport:
    inputs = _known_inputs(args)
    f = _function(args.f)
    cfg = _series_config(args)
    mode = IntegralMode(args.mode)

    if args.kind in ("ftc", "ibp"):
        if args.alpha <= 0.0:
            raise ValueError(f"the {args.kind} check needs --alpha > 0")
        if args.kind == "ftc":
            r1, r2 = ftc_residuals(f, args.a, args.b, args.alpha, cfg)
            ok = max(r1, r2) <= args.check_tol
            result = {"r1": r1, "r2": r2, "check_tol": args.check_tol}
        else:
            if args.g is None:
                raise ValueError("the ibp check needs --g")
            g = _function(args.g)
            residual = integration_by_parts_residual(f, g, args.a, args.b, args.alpha, cfg)
            ok = residual <= args.check_tol
            result = {"residual": residual, "check_tol": args.check_tol}
        status = Status.OK if ok else Status.CHECK_FAILED
        return RunReport("check", inputs, result, status)

    if args.g is None:
        raise ValueError(f"the {args.kind} check needs --g")
    g = _function(args.g)
    steps = StepPair(args.alpha, args.beta)

    if args.kind == "mvt":
        report = mvt_constant(f, g, args.a, args.b, steps, mode, cfg)
        slack = 1e-9 * max(1.0, abs(report.m), abs(report.M))
        ok = report.degenerate or (report.m - slack <= report.K <= report.M + slack)
        return RunReport(
            "check", inputs, report.to_dict(), Status.OK if ok else Status.CHECK_FAILED
        )

    if args.kind == "holder":
        report = holder_check(f, g, args.a, args.b, steps, args.p, mode, cfg)
    elif args.kind == "cs":
        report = cauchy_schwarz_check(f, g, args.a, args.b, steps, mode, cfg)
    elif args.kind == "minkowski":
        report = minkowski_check(f, g, args.a, args.b, steps, args.p, mode, cfg)
    else:
        report = comparison_check(f, g, args.a, args.b, steps, mode, cfg)
    status = Status.OK if report.holds else Status.CHECK_FAILED
    return RunReport("check", inputs, report.to_dict(), status)


_COMMANDS = {"eval": _cmd_eval, "diff": _cmd_diff, "check": _cmd_check}


def _emit(report: RunReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_dict()))
        return
    lines = [f"command = {report.command}"]
    if report.result is not None:
        for key, value in report.result.items():
            if value is None:
                continue
            lines.append(f"{key} = {json.dumps(value)}")
    for note in report.diagnostics:
        lines.append(f"note: {note}")
    lines.append(f"status = {report.status.value}")
    print("\n".join(lines))


def main(argv: list | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = _COMMANDS[args.command](args)
    except (NorlundError, ValueError) as exc:
        report = RunReport(
            command=args.command,
            inputs=_known_inputs(args),
            result=None,
            status=Status.ERROR,
            diagnostics=[f"{type(exc).__name__}: {exc}"],
        )
    _emit(report, getattr(args, "json", False))
    return report.status.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
