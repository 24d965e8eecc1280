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
import dataclasses
import functools
import json
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from .approx import (
    InsufficientDataError,
    plan_convergent,
    plan_finite,
    plan_from_json,
    plan_to_json,
    verify_plan,
)
from .eigenvalues import QuadConfig, closed_form_sequence, gamma_sequence
from .seqspace import (
    LimitTail,
    SeqGenerator,
    SeqWindow,
    UnknownTail,
    ZeroTail,
    _vp_averages,
    lipschitz_seminorm,
    modulus_of_continuity,
    shift_difference_sup,
    target_from_json,
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
    try:
        for key, _, value in (item.partition("=") for item in query.split("&") if query):
            if key in params:
                raise ValueError(f"parameter {key!r} is given twice")
            params[key] = value
        n_win = int(params.pop("n", "256"))
        q = complex(params.pop("q")) if "q" in params else None
        support = tuple(complex(v) for v in params.pop("values").split(",")) if "values" in params else None
        if params:
            raise ValueError(f"unknown generator parameters {sorted(params)}")
        # the kind refuses a parameter it does not take, by the name written here
        return SeqGenerator(kind=kind, q=q, support=support).window(n_win)
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


def _csv_field(text: str, lone: bool) -> str:
    """text as csv's excel dialect writes one field: quoted, with '"' doubled, if it holds , " \\r or \\n.

    A row whose only field is empty (lone) is written as "".
    """
    if any(c in text for c in ',"\r\n') or (lone and not text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_column(column: list, lone: bool) -> tuple[str, list]:
    """A column's conversion and cells: "%.17g" of Python floats, "%d" of Python ints, else "%s" of quoted `_cell`s."""
    kinds = set(map(type, column))
    if kinds <= {float}:
        return "%.17g", column
    if kinds <= {int}:
        return "%d", column
    if kinds == {str} and column.count(column[0]) == len(column):  # one string, such as eigs' engine
        return "%s", [_csv_field(column[0], lone)] * len(column)
    return "%s", [_csv_field(_cell(value), lone) for value in column]


def _json_text(obj) -> str:
    """obj as indented JSON and a newline, a float that is not finite as null: RFC 8259 has no NaN or Infinity.

    Finite output is one json.dumps; only text it refuses is read back with those constants as None.
    """
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError:
        return json.dumps(json.loads(json.dumps(obj), parse_constant=lambda _: None), indent=2) + "\n"


def _emit(args, columns: dict[str, list], summary: dict | None = None) -> None:
    """Write the table given by its columns (name -> cells of one length), as CSV or JSON, and the summary.

    CSV picks one conversion per column (`_csv_column`): "%.17g" is the
    same conversion as `_cell`'s format(v, ".17g") and "%d" as its str(v).
    The columns are interleaved into one flat list, and the body is one
    % of the row template repeated once per row; the header, and the cells
    that go through `_cell`, are quoted as csv.writer quotes (`_csv_field`).
    The summary is one "# k=v ..." line.  JSON builds its rows, one object
    per index, only here.
    """
    if args.format == "json":
        payload: dict = {"rows": [dict(zip(columns, row)) for row in zip(*columns.values())]}
        if summary is not None:
            payload["summary"] = summary
        text = _json_text(payload)
    else:
        width, lone = len(columns), len(columns) == 1
        size = len(next(iter(columns.values()), []))
        conversions, flat = [], [None] * (width * size)
        for i, column in enumerate(columns.values()):
            conversion, flat[i::width] = _csv_column(column, lone)
            conversions.append(conversion)
        header = ",".join(_csv_field(name, lone) for name in columns)
        text = header + "\r\n" + ((",".join(conversions) + "\r\n") * size) % tuple(flat)
        if summary is not None:
            text += "# " + " ".join(f"{k}={_cell(v)}" for k, v in summary.items()) + "\r\n"
    _write_text(getattr(args, "output", None), text)


def _write_text(path: str | None, text: str) -> None:
    """Write text to the file at path as UTF-8, or to stdout when path is empty.

    The file is overwritten in place and, when it is a regular file, cut to
    the length written: truncating an existing file to zero before the write
    costs far more than cutting its tail after it.  The bytes, a new file's
    mode (0o666 less the umask), an existing file's inode and mode, and the
    following of symlinks are what `open(path, "w")` gives; FIFOs, devices
    and ttys are written without the cut.  Text that cannot be encoded leaves
    the file as it was.  A write that fails partway (a full disk) leaves the
    new prefix followed by the old file's tail.
    """
    if not path:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as out:
        out.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            out.truncate()


# ---------------------------------------------------------------------------
# Commands

def _cmd_eigs(args) -> int:
    if args.n_max < 0:
        raise UsageError("--n-max must be nonnegative")
    sym = _load_symbol(args.symbol)
    cfg = _quad_config(args)
    size = args.n_max + 1
    # with --engine both the table shows the closed form and the quadrature's distance from it
    closed = None
    if args.engine != "quad":
        closed = closed_form_sequence(sym.coefficients, sym.xi, sym.offset, args.n_max).values.tolist()
    records = None if args.engine == "closed" else gamma_sequence(sym, args.n_max, cfg, engine="quad").entries
    values = [res.value for res in records] if closed is None else closed
    columns = {
        "n": list(range(size)),
        "gamma_re": [value.real for value in values],
        "gamma_im": [value.imag for value in values],
        "engine": [args.engine] * size,
        "est_abs_err": [None] * size if records is None else [res.est_abs_err for res in records],
    }
    failed = records is not None and not all(res.converged for res in records)
    if args.engine == "both":
        columns["abs_diff"] = [abs(value - res.value) for value, res in zip(closed, records)]
        failed = failed or any(diff > err for diff, err in zip(columns["abs_diff"], columns["est_abs_err"]))
    _emit(args, columns)
    if not all(map(math.isfinite, columns["gamma_re"] + columns["gamma_im"])):
        raise NumericError("an eigenvalue is not finite: its float evaluation overflowed")
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
    except (InsufficientDataError, OverflowError) as exc:  # a window too short, or a scale past the float range
        raise ValidationError(str(exc)) from None
    except ValueError as exc:  # an epsilon that is not finite and positive
        raise UsageError(str(exc)) from None
    if args.xi is not None:
        plan = dataclasses.replace(plan, xi=args.xi)
    try:
        report = verify_plan(plan, args.n_verify)
    except ValueError as exc:  # a scale below xi_min or a window shorter than N
        raise UsageError(str(exc)) from None
    plan_text = _json_text(plan_to_json(plan, report))
    _write_text(args.plan_out, plan_text)
    if args.report_out:
        columns = {
            "n": list(range(len(report.abs_error))),
            "target_re": report.sigma.real.tolist(),
            "target_im": report.sigma.imag.tolist(),
            "gamma_re": report.gamma.real.tolist(),
            "gamma_im": report.gamma.imag.tolist(),
            "abs_error": report.abs_error.tolist(),
        }
        _emit(
            argparse.Namespace(format=args.format, output=args.report_out),
            columns,
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
    _write_text(getattr(args, "output", None), _json_text(payload))
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _cmd_symbol_eval(args) -> int:
    if args.points < 1:
        raise UsageError("--points must be >= 1")
    if not 0 <= args.x_max < math.inf:
        raise UsageError("--x-max must be finite and nonnegative")
    sym = _load_symbol(args.symbol)
    xs = [args.x_max * i / max(args.points - 1, 1) for i in range(args.points)]
    values = eval_symbol(sym, xs)
    columns = {"x": xs, "value_re": values.real.tolist(), "value_im": values.imag.tolist()}
    _emit(args, columns)
    if not all(map(math.isfinite, columns["value_re"] + columns["value_im"])):
        raise NumericError("a symbol value is not finite: its float evaluation overflowed")
    return EXIT_OK


def _cmd_smooth(args) -> int:
    if not 0.0 < args.delta < 1.0:
        raise UsageError("--delta must lie in (0, 1)")
    target = _load_target(args.target)
    y = _vp_averages(target, args.delta)
    sigma = target.as_array(len(y))
    # hypot rounds like abs() of a Python complex, and reads inf where abs() would raise
    with np.errstate(over="ignore"):
        diff = y - sigma
        abs_diff = np.hypot(diff.real, diff.imag)
    columns = {
        "j": list(range(len(y))),
        "sigma_re": sigma.real.tolist(),
        "sigma_im": sigma.imag.tolist(),
        "y_re": y.real.tolist(),
        "y_im": y.imag.tolist(),
        "abs_diff": abs_diff.tolist(),
    }
    summary = {
        "sup_abs_diff": max([0.0, *columns["abs_diff"]]),
        "modulus_windowed": modulus_of_continuity(target, args.delta),
        "delta": args.delta,
    }
    _emit(args, columns, summary)
    # abs_diff is not finite where y is not
    if not all(map(math.isfinite, columns["abs_diff"] + [summary["modulus_windowed"]])):
        raise NumericError("a smoothed value or the modulus is not finite: a sum or difference overflowed")
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
    cells = [("lipschitz_seminorm", "", lipschitz)]
    cells += [("modulus", f"delta={delta}", modulus_of_continuity(target, delta)) for delta in _DIAGNOSE_DELTAS]
    n_win = len(target)
    cells += [
        ("shift_diff_sup", f"k={k},n_from={n_from}", shift_difference_sup(target, k, n_from))
        for k in (1, 2)
        for n_from in sorted({n_win // 4, n_win // 2})
        if n_from + k < n_win
    ]
    columns = dict(zip(("quantity", "param", "value"), map(list, zip(*cells))))
    _emit(args, columns)
    if not all(map(math.isfinite, columns["value"])):
        raise NumericError("a diagnostic is not finite: a difference of values overflowed")
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


@functools.cache  # one parser per process: parsing never changes it
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
    except OSError as exc:  # an output path the OS refuses (`_write_text` is the one writer)
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
