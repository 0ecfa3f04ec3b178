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
from dataclasses import fields
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

__all__ = ["build_parser", "main"]

# The defaults of the check flags that some kinds do not read, and, per
# check kind in --kind's order, the flags it does not read: each must
# keep its default.
_CHECK_DEFAULTS = {"g": None, "beta": 0.0, "p": 2.0, "mode": "auto", "check_tol": 1e-9}
_UNREAD_FLAGS = {
    "holder": ("check_tol",),
    "cs": ("p", "check_tol"),
    "minkowski": ("check_tol",),
    "mvt": ("p", "check_tol"),
    "comparison": ("p", "check_tol"),
    "ftc": ("g", "beta", "p", "mode"),
    "ibp": ("beta", "p", "mode"),
}

# A report's status and the exit code it ends in.
_EXIT_CODES = {"ok": 0, "check_failed": 1, "error": 2}


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
    pc.add_argument("--kind", required=True, choices=tuple(_UNREAD_FLAGS))
    _add_mode_flags(pc)
    pc.add_argument(
        "--check-tol",
        type=_nonnegative_float,
        default=_CHECK_DEFAULTS["check_tol"],
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


def _cmd_check(args) -> tuple:
    """The check's result and status.  A flag the kind does not read must
    keep its default, else ValueError; this is checked after the run, so
    that an error in an input the kind does read is reported first."""
    outcome = _run_check(args)
    for name in _UNREAD_FLAGS[args.kind]:
        if getattr(args, name) != _CHECK_DEFAULTS[name]:
            raise ValueError(f"the {args.kind} check does not use --{name.replace('_', '-')}")
    return outcome


def _run_check(args) -> tuple:
    f = _function(args.f)
    cfg = SeriesConfig(tol=args.tol, max_terms=args.max_terms)
    if args.kind == "ftc":
        r1, r2 = ftc_residuals(f, args.a, args.b, args.alpha, cfg)
        result = {"r1": r1, "r2": r2, "check_tol": args.check_tol}
        return result, "ok" if max(r1, r2) <= args.check_tol else "check_failed", []

    if args.g is None:
        raise ValueError(f"the {args.kind} check needs --g")
    g = _function(args.g)
    if args.kind == "ibp":
        residual = integration_by_parts_residual(f, g, args.a, args.b, args.alpha, cfg)
        result = {"residual": residual, "check_tol": args.check_tol}
        return result, "ok" if residual <= args.check_tol else "check_failed", []

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
    return report, "ok" if report.holds else "check_failed", []


# Each command returns the result, status and diagnostics of its report.
_COMMANDS = {"eval": _cmd_eval, "diff": _cmd_diff, "check": _cmd_check}


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, default=_json_default))
        return
    lines = [f"command = {report['command']}"]
    result = report["result"]
    if result is not None:
        if not isinstance(result, dict):
            result = _json_default(result)
        lines += [f"{key} = {json.dumps(value, default=_json_default)}"
                  for key, value in result.items() if value is not None]
    lines += [f"note: {note}" for note in report["diagnostics"]]
    lines.append(f"status = {report['status']}")
    print("\n".join(lines))


def main(argv: list | None = None) -> int:
    args = _parser().parse_args(argv)
    inputs = {key: value for key, value in vars(args).items() if key not in ("command", "json")}
    try:
        result, status, diagnostics = _COMMANDS[args.command](args)
    except (NorlundError, ValueError) as exc:
        result, status, diagnostics = None, "error", [f"{type(exc).__name__}: {exc}"]
    report = {"command": args.command, "inputs": inputs, "result": result,
              "status": status, "diagnostics": diagnostics}
    _emit(report, args.json)
    return _EXIT_CODES[status]


if __name__ == "__main__":
    raise SystemExit(main())
