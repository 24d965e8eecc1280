"""The bytes of every table the CLI writes, pinned against a golden file.

`cli_tables.json` holds the exit code and the table text of each case below.
Portable cases take inputs whose every cell is exact in float arithmetic
(dyadic coefficients and targets, xi a power of two, correctly rounded
divisions and square roots), so their bytes do not depend on the platform's
libm or BLAS; the other cases run exp, the quadrature or long dot products,
and are compared only on the platform and numpy that wrote the file.
Regenerate it with `PYTHONPATH=src python tests/test_cli_tables.py`.

The column writer itself is checked against the row-by-row writer it
replaced, csv.writer over `_cell`s, on awkward cells: floats, ints, bools,
None, text that csv must quote, mixed columns, lone empty fields and empty
tables.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import pathlib
import platform
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

GOLDEN = pathlib.Path(__file__).with_name("cli_tables.json")

INPUTS = {
    "basic.json": {"type": "laguerre_basic", "m": 3, "xi": 4},
    "basic1.json": {"type": "laguerre_basic", "m": 1, "xi": 4},
    "combo.json": {"type": "combo", "xi": 8, "coefficients": [0.5, [-1.25, 0.75], 3.0], "offset": [0.25, -0.5]},
    "combo_small.json": {"type": "combo", "xi": 4, "coefficients": [1.0, -0.5]},
    "constant.json": {"type": "constant", "value": [1.5, -0.25]},
    "target.json": {"values": [1.0, 0.5, -0.25, 0.125], "tail": {"kind": "zero"}},
}

_INVERSE = "generator:inverse_plus_one?n=40"

# name -> (argv, portable); "{d}" is the input directory, and an approximate
# case's table is its --report-out file
CASES = {
    "eigs_closed_csv": (["eigs", "{d}/basic.json", "--n-max", "12"], True),
    "eigs_closed_json": (["eigs", "{d}/basic.json", "--n-max", "5", "--format", "json"], True),
    "eigs_closed_complex_csv": (["eigs", "{d}/combo.json", "--n-max", "10"], True),
    "eigs_closed_complex_json": (["eigs", "{d}/combo.json", "--n-max", "4", "--format", "json"], True),
    "eigs_quad_csv": (["eigs", "{d}/basic1.json", "--n-max", "4", "--engine", "quad"], False),
    "eigs_quad_json": (["eigs", "{d}/basic1.json", "--n-max", "2", "--engine", "quad", "--format", "json"], False),
    "eigs_both_csv": (["eigs", "{d}/combo_small.json", "--n-max", "6", "--engine", "both"], False),
    "eigs_both_json": (["eigs", "{d}/combo_small.json", "--n-max", "2", "--engine", "both", "--format", "json"], False),
    "approximate_csv": (
        ["approximate", "{d}/target.json", "--epsilon", "0.1", "--xi", "64", "--plan-out", "{d}/plan.json",
         "--report-out", "{d}/report"],
        True,
    ),
    "approximate_json": (
        ["approximate", "{d}/target.json", "--epsilon", "0.1", "--xi", "64", "--plan-out", "{d}/plan.json",
         "--report-out", "{d}/report", "--format", "json"],
        True,
    ),
    "approximate_failing_csv": (
        ["approximate", "{d}/target.json", "--epsilon", "0.01", "--xi", "64", "--plan-out", "{d}/plan.json",
         "--report-out", "{d}/report"],
        True,
    ),
    "approximate_geometric_csv": (
        ["approximate", "generator:geometric?q=0.9&n=300", "--epsilon", "0.05", "--plan-out", "{d}/plan.json",
         "--report-out", "{d}/report"],
        False,
    ),
    "diagnose_csv": (["diagnose", _INVERSE], True),
    "diagnose_json": (["diagnose", _INVERSE, "--format", "json"], True),
    "smooth_csv": (["smooth", _INVERSE, "--delta", "0.5"], True),
    "smooth_json": (["smooth", _INVERSE, "--delta", "0.5", "--format", "json"], True),
    "symbol_eval_constant_csv": (["symbol-eval", "{d}/constant.json", "--points", "5"], True),
    "symbol_eval_constant_json": (["symbol-eval", "{d}/constant.json", "--points", "3", "--format", "json"], True),
    "symbol_eval_csv": (["symbol-eval", "{d}/basic.json", "--x-max", "2", "--points", "9"], False),
    "symbol_eval_json": (["symbol-eval", "{d}/basic.json", "--x-max", "2", "--points", "3", "--format", "json"], False),
}


def _platform() -> dict:
    return {"machine": platform.machine(), "system": platform.system(), "numpy": np.__version__}


def _run_case(argv_template, directory: pathlib.Path) -> dict:
    from fockradial.cli import main

    for name, payload in INPUTS.items():
        (directory / name).write_text(json.dumps(payload), encoding="utf-8")
    argv = [arg.replace("{d}", str(directory)) for arg in argv_template]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    report = directory / "report"
    text = report.read_bytes().decode("utf-8") if "--report-out" in argv else out.getvalue()
    report.unlink(missing_ok=True)
    return {"code": code, "table": text}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", [name for name, (_, portable) in CASES.items() if portable])
def test_portable_table_bytes_are_pinned(name, tmp_path):
    assert _run_case(CASES[name][0], tmp_path) == _golden()["cases"][name]


@pytest.mark.parametrize("name", [name for name, (_, portable) in CASES.items() if not portable])
def test_table_bytes_are_pinned_on_the_golden_platform(name, tmp_path):
    golden = _golden()
    if golden["platform"] != _platform():
        pytest.skip(f"pinned on {golden['platform']}; this is {_platform()}")
    assert _run_case(CASES[name][0], tmp_path) == golden["cases"][name]


def test_golden_cases_cover_every_table_command():
    commands = {argv[0] for argv, _ in CASES.values()}
    assert commands == {"eigs", "approximate", "diagnose", "smooth", "symbol-eval"}
    assert set(_golden()["cases"]) == set(CASES)
    tables = _golden()["cases"]
    assert '"k=1,n_from=10"' in tables["diagnose_csv"]["table"]  # csv quotes the comma
    assert tables["approximate_failing_csv"]["code"] == 2
    assert all(case["table"] for case in tables.values())


# ---------------------------------------------------------------------------
# The column writer against the row-by-row writer it replaced


def _reference(fmt: str, columns: dict, summary: dict | None) -> str:
    """One dict per row, one `_cell` per cell, as the CLI wrote tables before they went by column.

    JSON writes a float that is not finite as null, as RFC 8259 has no NaN or Infinity.
    """
    from fockradial.cli import _cell

    header = list(columns)
    rows = [dict(zip(header, row)) for row in zip(*columns.values())]
    if fmt == "json":
        def finite(cells: dict) -> dict:
            return {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in cells.items()}

        payload: dict = {"rows": [finite(row) for row in rows]}
        if summary is not None:
            payload["summary"] = finite(summary)
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(row.get(h)) for h in header])
    text = buf.getvalue()
    if summary is not None:
        text += "# " + " ".join(f"{k}={_cell(v)}" for k, v in summary.items()) + "\r\n"
    return text


def _written(fmt: str, columns: dict, summary: dict | None, path: pathlib.Path) -> str:
    from fockradial.cli import _emit

    _emit(argparse.Namespace(format=fmt, output=str(path)), columns, summary)
    return path.read_bytes().decode("utf-8")


_AWKWARD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, 0.1, 1 / 3, -1e-17, 1e16, 123456789.0]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("with_summary", [False, True])
def test_column_writer_matches_the_row_writer_on_awkward_cells(tmp_path, fmt, with_summary):
    size = len(_AWKWARD_FLOATS)
    mixed = [None, True, False, np.float64(0.1), np.float64(-0.0), 7, "", "text", math.nan, np.float64(math.inf),
             -2, 2.5, None, np.float64(5e-324)]
    columns = {
        "n": list(range(size)),
        "floats": list(_AWKWARD_FLOATS),
        "numpy_floats": [np.float64(v) for v in _AWKWARD_FLOATS],
        "mixed": mixed,
        "text": ["a,b", 'say "hi"', "two\nlines", "", " pad ", "k=1,n_from=3", "é", "#", "\r", "'", ";", "x", "y", "z"],
        "none": [None] * size,
        "bools": [bool(i % 2) for i in range(size)],
    }
    summary = {"sup": 5e-324, "passed": False, "none": None, "mean": np.float64(1 / 3), "count": 3} if with_summary else None
    assert _written(fmt, columns, summary, tmp_path / "t") == _reference(fmt, columns, summary)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_column_writer_handles_an_empty_table(tmp_path, fmt):
    # no rows, and no columns at all (csv writes an empty header line)
    for columns in ({"n": [], "x": []}, {"": []}, {}):
        assert _written(fmt, columns, None, tmp_path / "t") == _reference(fmt, columns, None)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_column_writer_quotes_a_lone_empty_cell(tmp_path, fmt):
    # csv writes a row whose only field is empty as "", and so must the writer, header included
    for columns in ({"x": ["", "a", None, ","]}, {"": [1.5, 2.0]}, {"x": ["", None], "y": [None, ""]}):
        assert _written(fmt, columns, None, tmp_path / "t") == _reference(fmt, columns, None)
    assert _written("csv", {"x": ["", 1]}, None, tmp_path / "t") == 'x\r\n""\r\n1\r\n'


_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "=", "#", "'", ";", "\t", "é", "%"]), max_size=5)
_CELLS = [
    st.floats(allow_subnormal=True),
    st.integers(-(10**20), 10**20),
    st.booleans(),
    st.none(),
    _TEXT,
    st.floats().map(np.float64),
]
_ONE_TEXT = _TEXT | st.sampled_from([",", '"', ""])  # a column of one string, as eigs' engine is


@st.composite
def _tables(draw) -> dict:
    """Columns of one length: each all floats, all ints, all bools, all None, all text, one repeated text, or mixed."""
    size, width = draw(st.integers(0, 12)), draw(st.integers(1, 4))
    names = draw(st.lists(_TEXT, min_size=width, max_size=width, unique=True))
    columns = {}
    for name in names:
        cell = draw(st.sampled_from([*_CELLS, st.one_of(_CELLS), _ONE_TEXT]))
        if cell is _ONE_TEXT:
            columns[name] = [draw(_ONE_TEXT)] * size
        else:
            columns[name] = draw(st.lists(cell, min_size=size, max_size=size))
    return columns


@settings(max_examples=60, deadline=None)
@example(columns={"n": [0, 1, 2], "engine": [","] * 3}, summary_value=None)
@example(columns={"engine": ['say "hi"'] * 2, "x": [0.5, 1.5]}, summary_value=None)
@example(columns={"engine": [""] * 2}, summary_value=None)
@example(columns={"engine": [""] * 2, "x": ["", ""]}, summary_value=None)
@given(_tables(), st.none() | st.floats(allow_subnormal=True))
def test_column_writer_matches_the_row_writer_on_any_cells(tmp_path_factory, columns, summary_value):
    path = tmp_path_factory.mktemp("cells") / "t"
    summary = None if summary_value is None else {"x": summary_value, "n": len(columns), "text": "a b"}
    assert _written("csv", columns, summary, path) == _reference("csv", columns, summary)


if __name__ == "__main__":  # regenerate the golden file from the package under src
    import tempfile

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    cases = {}
    for name, (argv, _) in CASES.items():
        with tempfile.TemporaryDirectory() as work:
            cases[name] = _run_case(argv, pathlib.Path(work))
    GOLDEN.write_text(json.dumps({"platform": _platform(), "cases": cases}, indent=1) + "\n", encoding="utf-8")
