"""Command-line frontend.

Commands:
    eigs         eigenvalue table of a symbol (closed form, quadrature, or both)
    approximate  plan + certify a symbol for a target sequence
    verify       re-certify a stored plan against its target
    symbol-eval  pointwise symbol values on a grid
    smooth       Vallee-Poussin smoothing of a target
    diagnose     sequence-class diagnostics of a target

Targets are JSON files ({"values": [...], "tail": {...}}) or builtin
generators addressed as "generator:<kind>?n=...&...".  Symbols are JSON files
following the symbol schema.  Exit codes: 0 success, 1 usage, 2 validation or
certification failure, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

from .approx import (
    InsufficientDataError,
    plan_convergent,
    plan_finite,
    plan_from_json,
    plan_to_json,
    verify_plan,
)
from .eigenvalues import QuadConfig, gamma_sequence
from .seqspace import (
    LimitTail,
    SeqGenerator,
    SeqWindow,
    UnknownTail,
    ZeroTail,
    lipschitz_seminorm,
    modulus_of_continuity,
    shift_difference_sup,
    target_from_json,
    vp_smooth,
)
from .symbols import eval_symbol, symbol_from_json

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

_DIAGNOSE_DELTAS = (0.05, 0.1, 0.2, 0.4)


class UsageError(Exception):
    pass


class ValidationError(Exception):
    pass


class NumericError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Input loading

def _load_json(path: str, what: str) -> object:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} {path!r} is not valid JSON: {exc}") from None


def _parse_generator(source: str) -> SeqWindow:
    body = source[len("generator:") :]
    kind, _, query = body.partition("?")
    params: dict[str, str] = {}
    if query:
        for item in query.split("&"):
            key, _, value = item.partition("=")
            params[key] = value
    try:
        n_win = int(params.pop("n", "256"))
        q = complex(params.pop("q")) if "q" in params else None
        support = None
        if "values" in params:
            support = tuple(complex(v) for v in params.pop("values").split(","))
        if params:
            raise ValueError(f"unknown generator parameters {sorted(params)}")
        gen = SeqGenerator(kind=kind, q=q, support=support)
        return gen.window(n_win)
    except ValueError as exc:
        raise ValidationError(f"bad generator target {source!r}: {exc}") from None


def _load_target(source: str) -> SeqWindow:
    if source.startswith("generator:"):
        return _parse_generator(source)
    obj = _load_json(source, "target")
    try:
        return target_from_json(obj)
    except ValueError as exc:
        raise ValidationError(f"invalid target {source!r}: {exc}") from None


def _load_symbol(source: str):
    obj = _load_json(source, "symbol")
    try:
        return symbol_from_json(obj)
    except ValueError as exc:
        raise ValidationError(f"invalid symbol {source!r}: {exc}") from None


def _quad_config(args) -> QuadConfig:
    try:
        return QuadConfig(
            rel_tol=args.rel_tol,
            max_subdivisions=args.max_subdivisions,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# Output

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit(args, header: list[str], rows: list[dict], summary: dict | None = None) -> None:
    if args.format == "json":
        payload: dict = {"rows": rows}
        if summary is not None:
            payload["summary"] = summary
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(row.get(h)) for h in header])
        text = buf.getvalue()
        if summary is not None:
            text += "# " + " ".join(f"{k}={_cell(v)}" for k, v in summary.items()) + "\r\n"
    _write_text(getattr(args, "output", None), text)


def _write_text(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands

def _cmd_eigs(args) -> int:
    if args.n_max < 0:
        raise UsageError("--n-max must be nonnegative")
    sym = _load_symbol(args.symbol)
    cfg = _quad_config(args)
    both = args.engine == "both"
    # with --engine both the table shows the closed form and the quadrature's distance from it
    shown = gamma_sequence(sym, args.n_max, cfg, engine="closed").values if both else None
    seq = gamma_sequence(sym, args.n_max, cfg, engine="quad" if both else args.engine)
    header = ["n", "gamma_re", "gamma_im", "engine", "est_abs_err"] + (["abs_diff"] if both else [])
    rows = []
    failed = False
    for n, res in enumerate(seq.entries):
        value = shown[n] if both else res.value
        row = {
            "n": n,
            "gamma_re": value.real,
            "gamma_im": value.imag,
            "engine": "both" if both else res.engine,
            "est_abs_err": res.est_abs_err,
        }
        failed = failed or not res.converged
        if both:
            row["abs_diff"] = abs(value - res.value)
            failed = failed or row["abs_diff"] > res.est_abs_err
        rows.append(row)
    _emit(args, header, rows)
    if failed:
        raise NumericError(
            "quadrature could not certify its tolerance: split budget or precision tiers ran out"
        )
    return EXIT_OK


def _make_plan(target: SeqWindow, epsilon: float):
    if isinstance(target.tail, ZeroTail):
        return plan_finite(target, epsilon)
    if isinstance(target.tail, LimitTail):
        return plan_convergent(target, epsilon)
    raise ValidationError(
        "target tail is unknown; approximation needs a 'zero' or 'limit' tail descriptor"
    )


def _report_fields(report, names: tuple[str, ...]) -> dict:
    return {name: getattr(report, name) for name in names}


def _cmd_approximate(args) -> int:
    target = _load_target(args.target)
    try:
        plan = _make_plan(target, args.epsilon)
    except InsufficientDataError as exc:
        raise ValidationError(str(exc)) from None
    except ValueError as exc:  # an epsilon that is not finite and positive
        raise UsageError(str(exc)) from None
    if args.xi is not None:
        plan = dataclasses.replace(plan, xi=args.xi)
    try:
        report = verify_plan(plan, args.n_verify)
    except ValueError as exc:  # a scale below xi_min or a window shorter than N
        raise UsageError(str(exc)) from None
    plan_text = json.dumps(plan_to_json(plan, report), indent=2) + "\n"
    _write_text(args.plan_out, plan_text)
    if args.report_out:
        rows = []
        window = zip(report.gamma.tolist(), report.sigma.tolist(), report.abs_error.tolist())
        for n, (gamma, sigma, err) in enumerate(window):
            rows.append(
                {
                    "n": n,
                    "target_re": sigma.real,
                    "target_im": sigma.imag,
                    "gamma_re": gamma.real,
                    "gamma_im": gamma.imag,
                    "abs_error": err,
                }
            )
        report_args = argparse.Namespace(format=args.format, output=args.report_out)
        _emit(
            report_args,
            ["n", "target_re", "target_im", "gamma_re", "gamma_im", "abs_error"],
            rows,
            _report_fields(report, ("verified_error", "tail_certificate", "epsilon", "passed")),
        )
    if not report.passed:
        print(
            f"certification failed: verified_error + tail = {report.total:.6g} "
            f"> epsilon = {report.epsilon:.6g}",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_verify(args) -> int:
    target = _load_target(args.target)
    plan_obj = _load_json(args.plan, "plan")
    try:
        plan = plan_from_json(plan_obj, target)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    try:
        report = verify_plan(plan, args.n_verify)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    payload = _report_fields(
        report, ("verified_error", "tail_certificate", "total", "epsilon", "passed", "n_verify")
    )
    _write_text(getattr(args, "output", None), json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _cmd_symbol_eval(args) -> int:
    if args.points < 1:
        raise UsageError("--points must be >= 1")
    if not 0 <= args.x_max < math.inf:
        raise UsageError("--x-max must be finite and nonnegative")
    sym = _load_symbol(args.symbol)
    rows = []
    for i in range(args.points):
        x = args.x_max * i / max(args.points - 1, 1)
        value = complex(eval_symbol(sym, x))
        rows.append({"x": x, "value_re": value.real, "value_im": value.imag})
    _emit(args, ["x", "value_re", "value_im"], rows)
    return EXIT_OK


def _cmd_smooth(args) -> int:
    if not 0.0 < args.delta < 1.0:
        raise UsageError("--delta must lie in (0, 1)")
    target = _load_target(args.target)
    smoothed = vp_smooth(target, args.delta)
    rows = []
    sup_diff = 0.0
    for j in range(len(smoothed)):
        sigma = target.values[j]
        y = smoothed.values[j]
        diff = abs(y - sigma)
        sup_diff = max(sup_diff, diff)
        rows.append(
            {
                "j": j,
                "sigma_re": sigma.real,
                "sigma_im": sigma.imag,
                "y_re": y.real,
                "y_im": y.imag,
                "abs_diff": diff,
            }
        )
    summary = {
        "sup_abs_diff": sup_diff,
        "modulus_windowed": modulus_of_continuity(target, args.delta),
        "delta": args.delta,
    }
    _emit(args, ["j", "sigma_re", "sigma_im", "y_re", "y_im", "abs_diff"], rows, summary)
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    target = _load_target(args.target)
    if args.n_max is not None:
        if args.n_max < 1:
            raise UsageError("--n-max must be >= 1")
        prefix = min(args.n_max + 1, len(target))
        if prefix < len(target):
            # diagnostics are windowed; a truncated prefix asserts nothing past it
            target = SeqWindow(target.values[:prefix], UnknownTail())
    try:
        lipschitz = lipschitz_seminorm(target)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    rows = [{"quantity": "lipschitz_seminorm", "param": "", "value": lipschitz}]
    for delta in _DIAGNOSE_DELTAS:
        rows.append(
            {
                "quantity": "modulus",
                "param": f"delta={delta}",
                "value": modulus_of_continuity(target, delta),
            }
        )
    n_win = len(target)
    for k in (1, 2):
        for n_from in sorted({n_win // 4, n_win // 2}):
            if n_from + k < n_win:
                rows.append(
                    {
                        "quantity": "shift_diff_sup",
                        "param": f"k={k},n_from={n_from}",
                        "value": shift_difference_sup(target, k, n_from),
                    }
                )
    _emit(args, ["quantity", "param", "value"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser

def _add_quad_flags(sub) -> None:
    tau_help = "quadrature tolerance: each eigenvalue's error must be <= rel_tol * max(1, |gamma|)"
    sub.add_argument("--rel-tol", type=float, default=QuadConfig.rel_tol, help=tau_help)
    sub.add_argument(
        "--max-subdivisions", type=int, default=QuadConfig.max_subdivisions, help="split budget"
    )


def _add_format_flags(sub) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("-o", "--output", default=None, help="output path (default: stdout)")


def build_parser() -> _Parser:
    parser = _Parser(prog="fockradial", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    eigs = commands.add_parser("eigs", help="eigenvalue table of a symbol")
    eigs.add_argument("symbol", help="symbol JSON path")
    eigs.add_argument("--n-max", type=int, required=True)
    eigs.add_argument("--engine", choices=("closed", "quad", "both"), default="closed")
    _add_quad_flags(eigs)
    _add_format_flags(eigs)
    eigs.set_defaults(handler=_cmd_eigs)

    approx = commands.add_parser("approximate", help="plan and certify an approximation")
    approx.add_argument("target", help="target JSON path or generator:<kind>?...")
    approx.add_argument("--epsilon", type=float, required=True)
    approx.add_argument("--xi", type=int, default=None, help="override the planned scale")
    approx.add_argument("--n-verify", type=int, default=None)
    approx.add_argument("--plan-out", default=None, help="plan JSON path (default: stdout)")
    approx.add_argument("--report-out", default=None, help="per-index error report path")
    approx.add_argument("--format", choices=("csv", "json"), default="csv")
    approx.set_defaults(handler=_cmd_approximate)

    verify = commands.add_parser("verify", help="re-certify a stored plan")
    verify.add_argument("--plan", required=True, help="plan JSON path")
    verify.add_argument("--target", required=True, help="target JSON path or generator:...")
    verify.add_argument("--n-verify", type=int, default=None)
    verify.add_argument("-o", "--output", default=None)
    verify.set_defaults(handler=_cmd_verify)

    sym_eval = commands.add_parser("symbol-eval", help="pointwise symbol values")
    sym_eval.add_argument("symbol", help="symbol JSON path")
    sym_eval.add_argument("--x-max", type=float, default=5.0)
    sym_eval.add_argument("--points", type=int, default=101)
    _add_format_flags(sym_eval)
    sym_eval.set_defaults(handler=_cmd_symbol_eval)

    smooth = commands.add_parser("smooth", help="Vallee-Poussin smoothing")
    smooth.add_argument("target", help="target JSON path or generator:...")
    smooth.add_argument("--delta", type=float, required=True)
    _add_format_flags(smooth)
    smooth.set_defaults(handler=_cmd_smooth)

    diagnose = commands.add_parser("diagnose", help="sequence-class diagnostics")
    diagnose.add_argument("target", help="target JSON path or generator:...")
    diagnose.add_argument("--n-max", type=int, default=None)
    _add_format_flags(diagnose)
    diagnose.set_defaults(handler=_cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
