import csv
import dataclasses
import io
import itertools
import json
import math
import os
import pathlib
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

from fockradial import eigenvalues
from fockradial.approx import plan_from_json
from fockradial.cli import _json_text, _write_text, main
from fockradial.seqspace import SeqGenerator
from fockradial.symbols import CallableSymbol, combo_symbol, symbol_to_json


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_csv(text):
    rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
    header, data = rows[0], rows[1:]
    return header, data


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# eigs

def test_eigs_closed_form_table(tmp_path, capsys):
    sym = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 0, "xi": 2})
    code, out, _ = run(capsys, ["eigs", sym, "--n-max", "3"])
    assert code == 0
    header, data = read_csv(out)
    assert header == ["n", "gamma_re", "gamma_im", "engine", "est_abs_err"]
    assert [float(r[1]) for r in data] == [1.0, 0.5, 0.25, 0.125]
    assert all(r[3] == "closed" for r in data)


def test_eigs_constant_quadrature(tmp_path, capsys):
    sym = write_json(tmp_path / "s.json", {"type": "constant", "value": 1})
    code, out, _ = run(capsys, ["eigs", sym, "--n-max", "5", "--engine", "quad"])
    assert code == 0
    _, data = read_csv(out)
    assert len(data) == 6
    for row in data:
        assert abs(float(row[1]) - 1.0) <= 1e-10
        assert row[3] == "quad"


def test_eigs_empty_combo_with_offset_zero(tmp_path, capsys):
    sym = write_json(
        tmp_path / "s.json",
        {"type": "combo", "xi": 2, "coefficients": [0, 0], "offset": 0},
    )
    code, out, _ = run(capsys, ["eigs", sym, "--n-max", "4"])
    assert code == 0
    _, data = read_csv(out)
    assert all(float(r[1]) == 0.0 for r in data)


def test_an_offset_adds_to_a_symbol_of_any_type(tmp_path, capsys):
    # the closed form of basic(1, 4), plus 0.5 in every row, and the quadrature agrees
    plain = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 1, "xi": 4})
    shifted = write_json(tmp_path / "o.json", {"type": "laguerre_basic", "m": 1, "xi": 4, "offset": 0.5})
    code, out, _ = run(capsys, ["eigs", plain, "--n-max", "6"])
    assert code == 0
    base = [float(r[1]) for r in read_csv(out)[1]]
    code, out, _ = run(capsys, ["eigs", shifted, "--n-max", "6", "--engine", "both"])
    assert code == 0
    _, data = read_csv(out)
    assert [float(r[1]) for r in data] == [b + 0.5 for b in base]
    assert all(float(r[-1]) <= float(r[-2]) for r in data)


def test_eigs_engine_both_adds_diff_column(tmp_path, capsys):
    sym = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 1, "xi": 4})
    code, out, _ = run(capsys, ["eigs", sym, "--n-max", "6", "--engine", "both"])
    assert code == 0
    header, data = read_csv(out)
    assert header[-1] == "abs_diff"
    assert all(float(r[-1]) <= 1e-8 for r in data)


def test_eigs_json_format(tmp_path, capsys):
    sym = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 0, "xi": 2})
    code, out, _ = run(capsys, ["eigs", sym, "--n-max", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert [r["gamma_re"] for r in payload["rows"]] == [1.0, 0.5, 0.25]


def test_eigs_exit_codes(tmp_path, capsys):
    sym = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 0, "xi": 2})
    # usage: negative n-max
    code, _, err = run(capsys, ["eigs", sym, "--n-max", "-1"])
    assert code == 1 and "usage" in err
    # usage: bad flag value
    code, _, _ = run(capsys, ["eigs", sym, "--n-max", "x"])
    assert code == 1
    # validation: missing file
    code, _, err = run(capsys, ["eigs", str(tmp_path / "nope.json"), "--n-max", "1"])
    assert code == 2
    # validation: broken symbol
    bad = write_json(tmp_path / "bad.json", {"type": "nope"})
    code, _, _ = run(capsys, ["eigs", bad, "--n-max", "1"])
    assert code == 2
    # numeric: unreachable tolerance with a tiny budget
    code, _, err = run(
        capsys,
        [
            "eigs",
            sym,
            "--n-max",
            "1",
            "--engine",
            "quad",
            "--rel-tol",
            "1e-30",
            "--max-subdivisions",
            "1",
        ],
    )
    assert code == 3 and "numeric" in err


def test_eigs_rejects_a_bad_quadrature_config(tmp_path, capsys):
    # an infinite rel_tol would make every converged flag vacuously true
    sym = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 0, "xi": 2})
    for rel_tol in ("inf", "nan", "0"):
        argv = ["eigs", sym, "--n-max", "2", "--engine", "quad", "--rel-tol", rel_tol]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "", rel_tol
        assert err.startswith("usage error: rel_tol must be a finite positive real"), rel_tol
    code, out, err = run(capsys, ["eigs", sym, "--n-max", "2", "--max-subdivisions", "-1"])
    assert code == 1 and out == "" and "max_subdivisions" in err


def test_eigs_rejects_combo_coefficients_that_are_not_a_list(tmp_path, capsys):
    for coefficients in (5, None, "1,2"):
        bad = {"type": "combo", "xi": 2, "coefficients": coefficients}
        sym = write_json(tmp_path / "s.json", bad)
        code, out, err = run(capsys, ["eigs", sym, "--n-max", "1"])
        assert code == 2 and out == "", coefficients
        assert "invalid symbol" in err and "'coefficients' list" in err, coefficients


def test_eigs_rejects_non_finite_symbol_values(tmp_path, capsys):
    # json reads NaN and Infinity; the closed form would print them with exit 0
    for text in (
        '{"type": "constant", "value": NaN}',
        '{"type": "combo", "xi": 2, "coefficients": [1, Infinity]}',
        '{"type": "combo", "xi": 2, "coefficients": [1], "offset": -Infinity}',
    ):
        path = tmp_path / "s.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, ["eigs", str(path), "--n-max", "1"])
        assert code == 2 and out == "", text
        assert err.startswith("error: invalid symbol") and "finite" in err, text


def test_eigs_fails_on_a_closed_form_past_the_float_range(tmp_path, capsys):
    # sixty coefficients of 1e300 at xi = 2: the closed form's sums pass the
    # float range from some n on; those rows print inf, without a numpy
    # warning, and the run exits 3 after writing the table
    sym = write_json(tmp_path / "s.json", {"type": "combo", "xi": 2, "coefficients": [1e300] * 60})
    code, out, err = run(capsys, ["eigs", sym, "--n-max", "120"])
    assert code == 3 and "not finite" in err
    _, data = read_csv(out)
    values = [float(row[1]) for row in data]
    assert len(values) == 121 and math.isfinite(values[0]) and math.inf in values


def test_eigs_output_bytes_are_pinned(tmp_path, capsys):
    # the records carry a tier, but the table is built by column name, so
    # CSV and JSON keep their bytes: pinned for the closed form, and the
    # same columns, with no tier, for quadrature
    sym = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 1, "xi": 4})
    code, out, _ = run(capsys, ["eigs", sym, "--n-max", "2"])
    assert code == 0
    assert out == (
        "n,gamma_re,gamma_im,engine,est_abs_err\r\n0,0,0,closed,\r\n1,1,0,closed,\r\n2,0.5,0,closed,\r\n"
    )
    code, out, _ = run(capsys, ["eigs", sym, "--n-max", "1", "--format", "json"])
    assert code == 0
    rows = [
        f'    {{\n      "n": {n},\n      "gamma_re": {v},\n      "gamma_im": 0.0,\n'
        f'      "engine": "closed",\n      "est_abs_err": null\n    }}'
        for n, v in ((0, "0.0"), (1, "1.0"))
    ]
    assert out == '{\n  "rows": [\n' + ",\n".join(rows) + "\n  ]\n}\n"
    code, out, _ = run(capsys, ["eigs", sym, "--n-max", "2", "--engine", "both"])
    assert code == 0 and read_csv(out)[0] == ["n", "gamma_re", "gamma_im", "engine", "est_abs_err", "abs_diff"]
    code, out, _ = run(capsys, ["eigs", sym, "--n-max", "2", "--engine", "quad", "--format", "json"])
    assert code == 0
    columns = ["n", "gamma_re", "gamma_im", "engine", "est_abs_err"]
    assert [list(row) for row in json.loads(out)["rows"]] == [columns] * 3
    assert "tier" not in out


_COLD_START = """
import contextlib, io, json, sys
import fockradial
from fockradial import cli
loaded = lambda: sorted({"scipy", "mpmath", "numpy.ma", "decimal", "fractions"} & set(sys.modules))
report = [["import", 0, "", loaded()]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    report.append([argv[0], code, out.getvalue(), loaded()])
print(json.dumps(report))
"""


def test_cold_start_loads_no_scipy_mpmath_or_numpy_ma(tmp_path, capsys):
    # one fresh interpreter runs the commands in turn and reports after each
    # which of scipy, mpmath, numpy.ma, decimal and fractions it has loaded:
    # never the first three, since the package bounds the weight mass outside
    # its windows itself, by an elementary bound, reads and computes its
    # constants past float64 in integers, and merges its panel edges by a
    # sort; fractions (which imports decimal) at most from the first
    # quadrature on, for the Bernoulli numbers of ln n!; its first
    # quadrature is its first, so the lazily built Gauss-Kronrod constants
    # meet their first use there, and its bytes must equal the same command
    # run here; basic(12, 8) at n = 0 ends in the double-double pass
    # (test_double_double_rule_keeps_its_precision), which builds the rest
    sym = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 1, "xi": 4})
    deep = write_json(tmp_path / "deep.json", {"type": "laguerre_basic", "m": 12, "xi": 8})
    plan = str(tmp_path / "plan.json")
    target = "generator:geometric?q=0.5&n=80"
    quad = ["eigs", sym, "--n-max", "2", "--engine", "quad", "--format", "json"]
    commands = [
        ["diagnose", target],
        ["approximate", target, "--epsilon", "0.05", "--plan-out", plan],
        ["verify", "--plan", plan, "--target", target],
        ["smooth", target, "--delta", "0.5"],
        ["eigs", sym, "--n-max", "2", "--engine", "closed"],
        ["symbol-eval", sym, "--x-max", "1", "--points", "2"],
        quad,
        ["eigs", deep, "--n-max", "0", "--engine", "quad"],
    ]
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", _COLD_START, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path, capture_output=True, text=True, check=True,
    )
    report = json.loads(done.stdout)
    assert [row[1] for row in report] == [0] * len(report), done.stderr
    assert [(name, loaded) for name, _, _, loaded in report[:-2]] == [
        (name, []) for name in ["import", *(argv[0] for argv in commands[:-2])]
    ]
    assert all(set(loaded) <= {"decimal", "fractions"} for *_, loaded in report[-2:]), report
    code, out, _ = run(capsys, quad)
    assert code == 0 and report[-2][2] == out


_SHIFT_MODULES = """
import json, sys
import numpy as np
by_numpy = set(sys.modules)
from fockradial import eigenvalues, symbols
gauss = symbols.CallableSymbol(lambda x: np.exp(-x * x), sup_bound=1.0)
residuals = [eigenvalues.shifted_gamma_residual(sym, 2, 2) for sym in (gauss, symbols.basic_symbol(1, 4))]
added = sorted(set(sys.modules) - by_numpy)
print(json.dumps([residuals, [name for name in added if name.split(".")[:2] in (["numpy", "polynomial"], ["numpy", "linalg"])]]))
"""


def test_shift_identity_loads_no_numpy_polynomial_or_linalg(tmp_path):
    # a fresh interpreter runs the shift identity of a callable and of a
    # structured symbol; its averaging rule is the quadrature's Gauss-Kronrod
    # rule, so it loads nothing of numpy.polynomial or numpy.linalg past what
    # `import numpy` loads itself (numpy 2 loads numpy.linalg for
    # numpy.matrixlib, numpy 1 loads both)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", _SHIFT_MODULES],
        env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path, capture_output=True, text=True, check=True,
    )
    residuals, loaded = json.loads(done.stdout)
    assert loaded == []
    assert max(residuals) < 1e-9


_WITHOUT_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
import numpy as np
from fockradial import cli, eigenvalues, symbols
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(json.loads(sys.argv[1]))
gauss = symbols.CallableSymbol(lambda x: np.exp(-x * x), sup_bound=1.0)
print(json.dumps([code, out.getvalue(), repr(eigenvalues.shifted_gamma_residual(gauss, 2, 2))]))
"""


def test_quadrature_runs_with_scipy_blocked(tmp_path, capsys):
    # a fresh interpreter in which importing scipy raises runs eigs --engine
    # both and the level-2 shift identity of a callable, and prints what the
    # same calls give here
    sym = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 1, "xi": 4})
    argv = ["eigs", sym, "--n-max", "4", "--engine", "both"]
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(argv)],
        env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    code, out, residual = json.loads(done.stdout)
    assert [code, out] == list(run(capsys, argv)[:2])
    gauss = CallableSymbol(lambda x: np.exp(-x * x), sup_bound=1.0)
    assert residual == repr(eigenvalues.shifted_gamma_residual(gauss, 2, 2))


def test_eigs_both_fails_on_uncertified_cancellation(tmp_path, capsys, monkeypatch):
    # 40 terms at xi = 40: the integrand cancels from ~1e64 past every
    # precision tier, so no quadrature value may claim convergence
    coeffs = np.random.default_rng(0).normal(size=40)
    sym = write_json(tmp_path / "s.json", symbol_to_json(combo_symbol(coeffs, 40)))
    results = []
    quadrature = eigenvalues.gamma_quadrature

    def spy(*args, **kwargs):
        results.append(quadrature(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(eigenvalues, "gamma_quadrature", spy)
    code, _, err = run(capsys, ["eigs", sym, "--n-max", "2", "--engine", "both"])
    assert code == 3 and "certify" in err
    assert len(results) == 3 and not any(res.converged for res in results)


def test_eigs_both_fails_when_the_budget_runs_out(tmp_path, capsys):
    # at the default tolerance, but with no splits allowed, the float64 panels
    # of basic(8, 8) never settle, so no precision tier may certify them
    sym = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 8, "xi": 8})
    argv = ["eigs", sym, "--n-max", "3", "--engine", "both", "--max-subdivisions", "0"]
    code, _, err = run(capsys, argv)
    assert code == 3 and "certify" in err


def test_eigs_gives_no_certificate_at_infinity(tmp_path, capsys):
    # the window bound sup|g| * mass reads inf, and the panel sums overflow; the table is
    # written, with est_abs_err inf, and no record converges (filterwarnings = error: no warning)
    coefficients = [[1.5e308, 1.5e308], [-1.5e308, -1.5e308]]
    sym = write_json(tmp_path / "s.json", {"type": "combo", "xi": 2, "coefficients": coefficients})
    code, out, err = run(capsys, ["eigs", sym, "--n-max", "2", "--engine", "both"])
    assert code == 3 and "certify" in err
    _, data = read_csv(out)
    assert [row[4] for row in data] == ["inf"] * 3


def _strict_json(text):
    """text read as RFC 8259 JSON, which has no NaN or Infinity."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_json_output_writes_a_non_finite_number_as_null(tmp_path, capsys):
    # the CLI refuses NaN and Infinity on input, and writes them as null: the
    # estimates past the float range, and a smoothed table whose sums overflow
    coefficients = [[1.5e308, 1.5e308], [-1.5e308, -1.5e308]]
    sym = write_json(tmp_path / "s.json", {"type": "combo", "xi": 2, "coefficients": coefficients})
    code, out, err = run(capsys, ["eigs", sym, "--n-max", "1", "--engine", "both", "--format", "json"])
    assert code == 3 and "certify" in err
    assert [row["est_abs_err"] for row in _strict_json(out)["rows"]] == [None, None]
    big = write_json(tmp_path / "big.json", {"values": [1e308] * 40, "tail": {"kind": "zero"}})
    code, out, _ = run(capsys, ["smooth", big, "--delta", "0.5", "--format", "json"])
    assert code == 3 and _strict_json(out)["summary"]["sup_abs_diff"] is None
    # the plan of approximate and the payload of verify take the same writer;
    # finite text is json.dumps's, byte for byte
    payload = {"a": [1.5, math.inf, (-math.inf, math.nan)], "b": {"c": 2, "d": "x", "e": None}}
    cleaned = {"a": [1.5, None, [None, None]], "b": {"c": 2, "d": "x", "e": None}}
    assert _json_text(payload) == json.dumps(cleaned, indent=2) + "\n"
    finite = {"a": [1.5, 2, (0.1, -0.0)], "b": True, "c": 1e308}
    assert _json_text(finite) == json.dumps(finite, indent=2) + "\n"


def test_eigs_both_fails_when_the_closed_form_is_outside_the_estimate(tmp_path, capsys, monkeypatch):
    # every quadrature value claims convergence, but one estimate no longer
    # covers its distance from the closed form; the quadrature may hit the
    # closed form exactly, so that value is also moved by 1e-12
    sym = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 1, "xi": 4})
    quadrature = eigenvalues.gamma_quadrature

    def spy(sym, n, cfg, **kwargs):
        res = quadrature(sym, n, cfg, **kwargs)
        return dataclasses.replace(res, value=res.value + 1e-12, est_abs_err=0.0) if n == 3 else res

    monkeypatch.setattr(eigenvalues, "gamma_quadrature", spy)
    code, out, err = run(capsys, ["eigs", sym, "--n-max", "6", "--engine", "both"])
    assert code == 3 and "certify" in err
    _, data = read_csv(out)
    assert float(data[3][4]) == 0.0 < float(data[3][5])


def test_eigs_output_file(tmp_path, capsys):
    sym = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 0, "xi": 2})
    out_path = tmp_path / "table.csv"
    code, out, _ = run(capsys, ["eigs", sym, "--n-max", "2", "-o", str(out_path)])
    assert code == 0
    assert out == ""
    header, data = read_csv(out_path.read_text(encoding="utf-8"))
    assert len(data) == 3


# ---------------------------------------------------------------------------
# Output files: each is overwritten in place and cut to the length written


def test_a_shorter_rewrite_leaves_no_stale_tail(tmp_path):
    path = tmp_path / "out.txt"
    for text in ["a long first text\n" * 100, "short\n", "", "é, a longer one\n" * 3]:
        _write_text(str(path), text)
        assert path.read_bytes() == text.encode("utf-8")


def test_a_new_output_file_gets_the_mode_open_gives(tmp_path):
    old = os.umask(0o027)
    try:
        _write_text(str(tmp_path / "new.txt"), "x")
        with open(tmp_path / "by_open.txt", "w") as f:
            f.write("x")
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "new.txt").stat().st_mode)
    assert mode == 0o666 & ~0o027 == stat.S_IMODE((tmp_path / "by_open.txt").stat().st_mode)


def test_an_existing_output_file_keeps_its_inode_and_mode(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old text that is longer\n", encoding="utf-8")
    path.chmod(0o600)
    before = path.stat()
    _write_text(str(path), "new\n")
    after = path.stat()
    assert path.read_bytes() == b"new\n"
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o600)


def test_an_output_symlink_writes_through_to_its_target(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("old text that is longer\n", encoding="utf-8")
    try:
        link.symlink_to(target)
    except OSError:
        pytest.skip("no symlinks here")
    _write_text(str(link), "new\n")
    assert link.is_symlink() and target.read_bytes() == b"new\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
def test_output_to_a_fifo_or_the_null_device_is_not_cut(tmp_path, capsys):
    # neither can be truncated; both are written as open(path, "w") writes them
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    _write_text(str(fifo), "through a pipe\n")
    reader.join(timeout=10)
    assert received == [b"through a pipe\n"]
    _write_text(os.devnull, "nothing\n")
    sym = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 0, "xi": 2})
    code, out, err = run(capsys, ["eigs", sym, "--n-max", "2", "-o", os.devnull])
    assert (code, out, err) == (0, "", "")


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("flag", ["eigs -o", "approximate --plan-out", "approximate --report-out"])
def test_an_output_path_the_os_refuses_exits_2(tmp_path, capsys, flag, where):
    # one "error: cannot write" line and exit 2, not a traceback
    path = str(tmp_path / "no" / "x.csv") if where == "missing-directory" else str(tmp_path)
    command, option = flag.split()
    if command == "eigs":
        argv = ["eigs", write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 1, "xi": 4}), "--n-max", "2"]
    else:
        argv = ["approximate", "generator:geometric?q=0.5&n=80", "--epsilon", "0.05"]
        if option == "--report-out":
            argv += ["--plan-out", str(tmp_path / "plan.json")]
    code, out, err = run(capsys, [*argv, option, path])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output: ") and path in err and err.count("\n") == 1


def test_an_output_directory_still_raises(tmp_path):
    with pytest.raises(IsADirectoryError):
        _write_text(str(tmp_path), "x")


def test_text_that_cannot_be_encoded_leaves_the_old_bytes(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old bytes\n")
    with pytest.raises(UnicodeEncodeError):
        _write_text(str(path), "a lone surrogate \udc80\n")
    assert path.read_bytes() == b"old bytes\n"


def test_approximate_over_its_longer_outputs_writes_the_fresh_bytes(tmp_path, capsys):
    target = "generator:geometric?q=0.9&n=400"
    argv = ["approximate", target, "--epsilon", "0.05"]
    old, fresh = [[tmp_path / f"{side}.{ext}" for ext in ("json", "csv")] for side in ("old", "fresh")]
    for paths, extra in [(old, ["--n-verify", "2000"]), (old, []), (fresh, [])]:
        code, _, _ = run(capsys, argv + extra + ["--plan-out", str(paths[0]), "--report-out", str(paths[1])])
        assert code == 0
    assert [p.read_bytes() for p in old] == [p.read_bytes() for p in fresh]


def test_one_process_runs_calls_independently(tmp_path, capsys):
    # the parser is built once per process; no call may leak into the next
    sym = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 0, "xi": 2})
    code, out, _ = run(capsys, ["eigs", sym, "--n-max", "1", "--engine", "quad"])
    assert code == 0 and {r[3] for r in read_csv(out)[1]} == {"quad"}
    code, out, _ = run(capsys, ["eigs", sym, "--n-max", "1"])
    assert code == 0 and {r[3] for r in read_csv(out)[1]} == {"closed"}
    code, _, _ = run(capsys, ["eigs", sym, "--n-max", "x"])
    assert code == 1
    code, out, err = run(capsys, ["eigs", sym, "--n-max", "1"])
    assert code == 0 and err == "" and len(read_csv(out)[1]) == 2


# ---------------------------------------------------------------------------
# approximate + verify

def delta0_target(tmp_path):
    return write_json(
        tmp_path / "t.json", {"values": [1.0], "tail": {"kind": "zero"}}
    )


def test_approximate_delta0(tmp_path, capsys):
    target = delta0_target(tmp_path)
    plan_path = tmp_path / "plan.json"
    report_path = tmp_path / "report.csv"
    code, _, _ = run(
        capsys,
        [
            "approximate",
            target,
            "--epsilon",
            "0.2",
            "--plan-out",
            str(plan_path),
            "--report-out",
            str(report_path),
        ],
    )
    assert code == 0
    plan = json.loads(plan_path.read_text())
    assert plan["xi"] == 10
    assert plan["N"] == 1
    assert plan["verified_error"] == 0.1
    header, data = read_csv(report_path.read_text())
    assert header == ["n", "target_re", "target_im", "gamma_re", "gamma_im", "abs_error"]
    assert max(float(r[-1]) for r in data) == plan["verified_error"]


def test_approximate_zero_target(tmp_path, capsys):
    target = write_json(
        tmp_path / "t.json", {"values": [0, 0, 0], "tail": {"kind": "zero"}}
    )
    code, out, _ = run(capsys, ["approximate", target, "--epsilon", "0.5"])
    assert code == 0
    plan = json.loads(out)
    assert plan["verified_error"] == 0.0


def test_approximate_unknown_tail_rejected(tmp_path, capsys):
    target = write_json(
        tmp_path / "t.json", {"values": [1.0], "tail": {"kind": "unknown"}}
    )
    code, _, err = run(capsys, ["approximate", target, "--epsilon", "0.5"])
    assert code == 2
    assert "tail" in err


def test_approximate_usage_errors(tmp_path, capsys):
    target = delta0_target(tmp_path)
    for epsilon in ("-1", "inf"):
        code, out, _ = run(capsys, ["approximate", target, "--epsilon", epsilon])
        assert code == 1 and out == "", epsilon
    code, _, _ = run(capsys, ["approximate"])
    assert code == 1


def test_non_finite_limit_tail_is_an_invalid_target(tmp_path, capsys):
    # json reads NaN and Infinity; every command must refuse them as the tail's limit
    commands = (["smooth", "--delta", "0.5"], ["diagnose"], ["approximate", "--epsilon", "0.1"])
    for p in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "t.json"
        text = '{"values": [1, 0.5, 0.25, 0.2], "tail": {"kind": "limit", "p": %s}}' % p
        path.write_text(text, encoding="utf-8")
        for command, *flags in commands:
            code, out, err = run(capsys, [command, str(path), *flags])
            assert code == 2 and out == "", (p, command)
            assert err.startswith("error: invalid target") and "finite" in err, (p, command)


@pytest.mark.parametrize(
    "values, message",
    [
        ([1e308, 0.5], "window never falls below epsilon / 2"),
        ([1e308, -1e308, -1e308], "past the float range"),
    ],
    ids=["insufficient", "no-scale"],
)
def test_a_deviation_past_the_float_range_is_a_validation_error(tmp_path, capsys, values, message):
    # sigma(0) - p = 2e308 is inf: no index before it lies within epsilon / 2 of p, and
    # as a coefficient it leaves no scale; filterwarnings = error fails on any numpy warning
    target = write_json(tmp_path / "t.json", {"values": values, "tail": {"kind": "limit", "p": -1e308}})
    code, out, err = run(capsys, ["approximate", target, "--epsilon", "0.1"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_approximate_window_shorter_than_the_plan_is_a_usage_error(capsys):
    # the plan truncates at N = 36, so a 5-index window cannot certify it
    argv = ["approximate", "generator:geometric?q=0.9&n=400", "--epsilon", "0.05"]
    code, out, err = run(capsys, argv + ["--n-verify", "5"])
    assert code == 1
    assert err.startswith("usage error: ") and "truncation length" in err
    assert out == ""


def test_approximate_xi_override_halves_error(tmp_path, capsys):
    target = write_json(
        tmp_path / "t.json",
        {"values": [0, 0, 0, 1.0], "tail": {"kind": "zero"}},
    )
    code, out, _ = run(capsys, ["approximate", target, "--epsilon", "0.1"])
    assert code == 0
    base = json.loads(out)
    code, out, _ = run(
        capsys,
        ["approximate", target, "--epsilon", "0.1", "--xi", str(2 * base["xi"])],
    )
    assert code == 0
    doubled = json.loads(out)
    assert doubled["verified_error"] == pytest.approx(base["verified_error"] / 2)
    # inadmissible scale for the support length
    code, _, _ = run(capsys, ["approximate", target, "--epsilon", "0.1", "--xi", "2"])
    assert code == 1


def test_approximate_writes_the_plan_when_certification_fails(tmp_path, capsys):
    # xi = 19 is admissible for N = 36 but far below the planned scale
    plan_path = tmp_path / "plan.json"
    argv = ["approximate", "generator:geometric?q=0.9&n=400", "--epsilon", "0.05", "--xi", "19"]
    code, out, err = run(capsys, argv + ["--plan-out", str(plan_path)])
    assert code == 2 and out == ""
    assert err.startswith("certification failed: ")
    plan = json.loads(plan_path.read_text())
    assert plan["xi"] == 19 and plan["N"] == 36
    assert plan["verified_error"] + plan["tail_certificate"] > 0.05


def test_approximate_xi_override_keeps_truncation_term(tmp_path, capsys):
    # the plan truncates at N = 36 (0.9^36 < 0.025); overriding the scale
    # changes the synthesis part of the bound, not the truncated tail
    plan_path = tmp_path / "plan.json"
    argv = ["approximate", "generator:geometric?q=0.9&n=400", "--epsilon", "0.05"]
    code, _, _ = run(capsys, argv + ["--xi", "400", "--plan-out", str(plan_path)])
    assert code == 0
    plan = json.loads(plan_path.read_text())
    assert plan["N"] == 36
    weighted = sum(0.9**k * (k + 1) for k in range(36))
    assert plan["predicted_bound"] == pytest.approx(weighted / 400 + 0.9**36, rel=1e-12)
    assert plan["verified_error"] + plan["tail_certificate"] <= plan["predicted_bound"]


@pytest.mark.parametrize("xi", [None, 400])
def test_plan_read_back_has_the_written_predicted_bound(tmp_path, capsys, xi):
    plan_path = tmp_path / "plan.json"
    argv = ["approximate", "generator:geometric?q=0.9&n=400", "--epsilon", "0.05"]
    argv += ["--plan-out", str(plan_path)] + ([] if xi is None else ["--xi", str(xi)])
    code, _, _ = run(capsys, argv)
    assert code == 0
    stored = json.loads(plan_path.read_text())
    target = SeqGenerator(kind="geometric", q=0.9).window(400)
    assert plan_from_json(stored, target).predicted_bound == stored["predicted_bound"]


def test_verify_roundtrip_is_bit_stable(tmp_path, capsys):
    target = write_json(
        tmp_path / "t.json",
        {"values": [0.5, 0.25, 0.125, 0.0625], "tail": {"kind": "zero"}},
    )
    plan_path = tmp_path / "plan.json"
    code, _, _ = run(
        capsys,
        ["approximate", target, "--epsilon", "0.3", "--plan-out", str(plan_path)],
    )
    assert code == 0
    stored = json.loads(plan_path.read_text())
    code, out, _ = run(capsys, ["verify", "--plan", str(plan_path), "--target", target])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["verified_error"] == stored["verified_error"]
    assert report["tail_certificate"] == stored["tail_certificate"]


def test_verify_recertifies_at_the_stored_window(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    target = "generator:geometric?q=0.9&n=400"
    argv = ["approximate", target, "--epsilon", "0.05", "--n-verify", "2000"]
    code, _, _ = run(capsys, argv + ["--plan-out", str(plan_path)])
    assert code == 0
    stored = json.loads(plan_path.read_text())
    assert stored["verify_window"] == 2000
    code, out, _ = run(capsys, ["verify", "--plan", str(plan_path), "--target", target])
    assert code == 0
    report = json.loads(out)
    assert report["n_verify"] == 2000
    assert report["verified_error"] == stored["verified_error"]
    assert report["tail_certificate"] == stored["tail_certificate"]
    # an explicit --n-verify still wins over the stored window
    code, out, _ = run(
        capsys, ["verify", "--plan", str(plan_path), "--target", target, "--n-verify", "144"]
    )
    assert code == 0
    assert json.loads(out)["n_verify"] == 144


def test_verify_failing_plan(tmp_path, capsys):
    target = delta0_target(tmp_path)
    # a deliberately bad plan: scale too small for the promised epsilon
    plan = {
        "epsilon": 0.01,
        "N": 1,
        "xi": 2,
        "coefficients": [1.0],
        "p": 0.0,
        "predicted_bound": 0.5,
        "verified_error": None,
        "tail_certificate": None,
        "verify_window": None,
    }
    plan_path = write_json(tmp_path / "plan.json", plan)
    code, out, _ = run(capsys, ["verify", "--plan", plan_path, "--target", target])
    assert code == 2
    assert json.loads(out)["passed"] is False


def test_verify_rejects_a_scale_below_xi_min(tmp_path, capsys):
    # N = 4 needs xi >= 3 for the tail certificate's monotone decay
    target = write_json(tmp_path / "t.json", {"values": [1.0] * 4, "tail": {"kind": "zero"}})
    plan = {"epsilon": 0.5, "N": 4, "xi": 2, "coefficients": [1.0] * 4, "p": 0.0}
    plan_path = write_json(tmp_path / "plan.json", plan)
    code, out, err = run(capsys, ["verify", "--plan", plan_path, "--target", target])
    assert code == 2 and out == ""
    assert err.startswith("error: plan scale 2 is below 3")


def test_verify_rejects_non_integer_plan_fields(tmp_path, capsys):
    # xi = 10.7 must not be certified as xi = 10, nor true or "5" read as
    # integers; epsilon must be a finite positive real, the coefficients and p finite
    target = delta0_target(tmp_path)
    plan = {
        "epsilon": 0.2,
        "N": 1,
        "xi": 10,
        "coefficients": [1.0],
        "p": 0.0,
        "predicted_bound": 0.1,
        "verified_error": None,
        "tail_certificate": None,
        "verify_window": 51,
    }
    plan_path = write_json(tmp_path / "plan.json", plan)
    code, _, _ = run(capsys, ["verify", "--plan", plan_path, "--target", target])
    assert code == 0
    bad_fields = [*itertools.product(("xi", "N", "verify_window"), (10.7, True, "5"))]
    bad_fields += [("epsilon", bad) for bad in (True, "0.6", math.inf, 0, -1)]
    bad_fields += [("coefficients", [math.nan]), ("p", math.inf)]
    for key, bad in bad_fields:
        plan_path = write_json(tmp_path / "plan.json", {**plan, key: bad})
        code, out, err = run(capsys, ["verify", "--plan", plan_path, "--target", target])
        assert code == 2, (key, bad)
        assert out == "" and "invalid plan JSON" in err, (key, bad)


# ---------------------------------------------------------------------------
# symbol-eval

def test_symbol_eval_grid(tmp_path, capsys):
    sym = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 0, "xi": 2})
    code, out, _ = run(
        capsys, ["symbol-eval", sym, "--x-max", "1", "--points", "2"]
    )
    assert code == 0
    _, data = read_csv(out)
    assert float(data[0][1]) == pytest.approx(2.0)
    assert float(data[1][1]) == pytest.approx(2 * math.exp(-1))


def test_symbol_eval_needs_a_point(tmp_path, capsys):
    sym = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 0, "xi": 2})
    code, out, err = run(capsys, ["symbol-eval", sym, "--points", "0"])
    assert code == 1 and out == ""
    assert err == "usage error: --points must be >= 1\n"


def test_symbol_eval_rejects_a_non_finite_x_max(tmp_path, capsys):
    sym = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 0, "xi": 2})
    for x_max in ("nan", "inf", "-1"):
        code, out, err = run(capsys, ["symbol-eval", sym, "--x-max", x_max])
        assert code == 1 and out == "", x_max
        assert err == "usage error: --x-max must be finite and nonnegative\n", x_max


def test_symbol_eval_fails_on_a_value_that_overflows(tmp_path, capsys):
    # basic(997, 2) is finite at x = 0, but its float Laguerre recurrence
    # overflows at x^2 = 1600: the table shows nan there and the run exits 3
    sym = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 997, "xi": 2})
    code, out, err = run(capsys, ["symbol-eval", sym, "--x-max", "40", "--points", "2"])
    assert code == 3 and "not finite" in err
    _, data = read_csv(out)
    assert math.isfinite(float(data[0][1])) and math.isnan(float(data[1][1]))


# ---------------------------------------------------------------------------
# smooth

def test_smooth_constant_target(tmp_path, capsys):
    target = write_json(
        tmp_path / "t.json",
        {"values": [2.0] * 20, "tail": {"kind": "limit", "p": 2.0}},
    )
    code, out, _ = run(capsys, ["smooth", target, "--delta", "0.5"])
    assert code == 0
    _, data = read_csv(out)
    assert all(float(r[-1]) == 0.0 for r in data)
    assert "sup_abs_diff=0" in out


def test_smooth_generator_bound(capsys):
    code, out, _ = run(
        capsys, ["smooth", "generator:cos_sqrt?n=400", "--delta", "0.3", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    summary = payload["summary"]
    assert summary["sup_abs_diff"] <= summary["modulus_windowed"] + 1e-12


def test_smooth_fails_after_its_table_when_a_running_sum_overflows(tmp_path, capsys):
    # every average is 1e308, but the running sums pass the float range from the second on
    target = write_json(tmp_path / "big.json", {"values": [1e308] * 40, "tail": {"kind": "zero"}})
    code, out, err = run(capsys, ["smooth", target, "--delta", "0.5"])
    assert code == 3 and err.startswith("numeric failure: ")
    _, data = read_csv(out)
    assert len(data) == 40 and float(data[0][3]) == 1e308
    assert not all(math.isfinite(float(row[3])) for row in data)


def test_smooth_usage_error_on_bad_delta(capsys):
    code, _, _ = run(capsys, ["smooth", "generator:cos_sqrt?n=50", "--delta", "1.5"])
    assert code == 1


# ---------------------------------------------------------------------------
# diagnose

def test_diagnose_constant(capsys):
    code, out, _ = run(
        capsys,
        ["diagnose", "generator:finite_support?values=3,3,3&n=40"],
    )
    # constant prefix with zero tail: seminorm reflects the drop to 0 at the edge
    assert code == 0
    header, data = read_csv(out)
    assert header == ["quantity", "param", "value"]
    quantities = {r[0] for r in data}
    assert {"lipschitz_seminorm", "modulus", "shift_diff_sup"} <= quantities


def test_diagnose_cos_sqrt_lipschitz(capsys):
    code, out, _ = run(
        capsys, ["diagnose", "generator:cos_sqrt?n=5000", "--format", "json"]
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    seminorm = next(r["value"] for r in rows if r["quantity"] == "lipschitz_seminorm")
    assert seminorm <= 1.0 + 1e-12


def test_diagnose_detects_non_lipschitz(capsys):
    code, out, _ = run(
        capsys,
        ["diagnose", "generator:sqrt_abs_sin_pi_sqrt?n=10002", "--format", "json"],
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    seminorm = next(r["value"] for r in rows if r["quantity"] == "lipschitz_seminorm")
    assert seminorm > 5.0


def test_diagnose_fails_after_its_table_when_a_difference_overflows(tmp_path, capsys):
    # neighbours 1e308 and -1e308 differ by more than the largest float
    target = write_json(tmp_path / "alt.json", {"values": [1e308, -1e308] * 20, "tail": {"kind": "limit", "p": 0}})
    code, out, err = run(capsys, ["diagnose", target])
    assert code == 3 and err.startswith("numeric failure: ")
    _, data = read_csv(out)
    values = {(row[0], row[1]): float(row[2]) for row in data}
    assert values["lipschitz_seminorm", ""] == math.inf
    assert values["shift_diff_sup", "k=2,n_from=10"] == 0.0
    code, out, err = run(capsys, ["smooth", target, "--delta", "0.9"])
    assert code == 3 and "modulus_windowed=inf" in out


def test_diagnose_constant_target_is_all_zero(tmp_path, capsys):
    target = write_json(
        tmp_path / "t.json",
        {"values": [2.0] * 50, "tail": {"kind": "limit", "p": 2.0}},
    )
    code, out, _ = run(capsys, ["diagnose", target, "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert all(r["value"] == 0.0 for r in rows)


def test_diagnose_n_max_reads_a_prefix_with_an_unknown_tail(tmp_path, capsys):
    source = "generator:geometric?q=0.9&n=100"
    prefix = SeqGenerator(kind="geometric", q=0.9).window(21).values
    known = {"values": [v.real for v in prefix], "tail": {"kind": "limit", "p": 0.0}}
    unknown = {**known, "tail": {"kind": "unknown"}}
    code, out, _ = run(capsys, ["diagnose", source, "--n-max", "20"])
    assert code == 0
    with_unknown = run(capsys, ["diagnose", write_json(tmp_path / "u.json", unknown)])[1]
    with_limit = run(capsys, ["diagnose", write_json(tmp_path / "k.json", known)])[1]
    # the limit tail would add pairs past index 20, so the two differ
    assert out == with_unknown != with_limit
    code, out, err = run(capsys, ["diagnose", source, "--n-max", "0"])
    assert code == 1 and out == ""
    assert err == "usage error: --n-max must be >= 1\n"


def test_diagnose_one_value_target_is_a_validation_error(tmp_path, capsys):
    one = write_json(tmp_path / "t.json", {"values": [1.0], "tail": {"kind": "zero"}})
    for target in ("generator:cos_sqrt?n=1", one):
        code, out, err = run(capsys, ["diagnose", target])
        assert code == 2
        assert err == "error: window too short; need at least two values\n"
        assert out == ""


def test_generator_target_validation(capsys):
    code, _, _ = run(capsys, ["diagnose", "generator:warp?n=10"])
    assert code == 2
    code, _, _ = run(capsys, ["diagnose", "generator:geometric?q=2&n=10"])
    assert code == 2
    code, out, err = run(capsys, ["diagnose", "generator:cos_sqrt?n=10&z=3"])
    assert code == 2 and out == ""
    assert "unknown generator parameters ['z']" in err
    # a parameter the kind does not take is refused, named as the target writes it,
    # and so is a key given twice
    for source, message in [
        ("generator:cos_sqrt?q=0.5&n=10", "cos_sqrt generator takes no q"),
        ("generator:geometric?q=0.5&values=9,9&n=10", "geometric generator takes no values"),
        ("generator:finite_support?values=1,2&q=0.3&n=4", "finite_support generator takes no q"),
        ("generator:cos_sqrt?n=10&n=20", "parameter 'n' is given twice"),
    ]:
        code, out, err = run(capsys, ["diagnose", source])
        assert (code, out) == (2, ""), source
        assert err == f"error: bad generator target {source!r}: {message}\n"


_HUGE = 10**400  # an integer JSON holds exactly and no float does


@pytest.mark.parametrize("reader", ["target", "symbol", "plan"])
def test_an_integer_past_the_float_range_is_a_validation_error(tmp_path, capsys, reader):
    # each reader parses its numbers through one scalar reader, which must
    # refuse such an integer as invalid data, not end in an OverflowError
    target = {"values": [1.0], "tail": {"kind": "zero"}}
    plan = {"epsilon": 0.2, "N": 1, "xi": 10, "coefficients": [1.0], "p": 0.0}
    if reader == "target":
        argv = ["diagnose", write_json(tmp_path / "t.json", {**target, "values": [1.0, _HUGE]})]
    elif reader == "symbol":
        symbol = write_json(tmp_path / "s.json", {"type": "combo", "xi": 4, "coefficients": [[0, _HUGE]]})
        argv = ["eigs", symbol, "--n-max", "2"]
    else:
        plan_path = write_json(tmp_path / "plan.json", {**plan, "coefficients": [_HUGE]})
        argv = ["verify", "--plan", plan_path, "--target", write_json(tmp_path / "t.json", target)]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "", reader
    assert err.startswith("error: ") and "past the float range" in err, reader


@pytest.mark.parametrize(
    "field, value, message",
    [("xi", _HUGE, "past the float range"), ("m", _HUGE, "at most"), ("m", 10**7, "at most")],
    ids=["huge-xi", "huge-m", "ten-million-m"],
)
def test_a_basic_symbol_too_large_to_build_is_a_validation_error(tmp_path, capsys, field, value, message):
    # a degree past the cap is refused before its coefficients are built,
    # and a scale past the float range before any float meets it
    symbol = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 1, "xi": 4, field: value})
    for engine in ("closed", "quad"):
        code, out, err = run(capsys, ["eigs", symbol, "--n-max", "2", "--engine", engine])
        assert code == 2 and out == "", engine
        assert err.startswith("error: invalid symbol") and message in err, engine


@pytest.mark.parametrize(
    "target, epsilon",
    [
        ("generator:finite_support?values=1,2,3", "1e-320"),
        ({"values": [1e308, 1e308], "tail": {"kind": "zero"}}, "0.1"),
    ],
    ids=["subnormal-epsilon", "huge-values"],
)
def test_a_scale_past_the_float_range_is_a_validation_error(tmp_path, capsys, target, epsilon):
    # sum |c_k| (k + 1) / (epsilon / 2) is inf here: no scale can be planned
    if isinstance(target, dict):
        target = write_json(tmp_path / "t.json", target)
    code, out, err = run(capsys, ["approximate", target, "--epsilon", epsilon])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "past the float range" in err


def test_a_scale_past_2_53_is_planned_in_time(tmp_path, capsys):
    # weighted / (epsilon / 2) is 3.8e187, where a step of 1 in xi leaves the float
    # the planner divides by as it is; a fresh interpreter, so that a loop that never
    # ends fails the test instead of stalling the suite
    target = write_json(tmp_path / "t.json", {"values": [1.8988382879679934e186], "tail": {"kind": "zero"}})
    plan_path = tmp_path / "plan.json"
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "fockradial.cli", "approximate", target, "--epsilon", "0.1", "--plan-out", str(plan_path)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 0, done.stderr
    plan = json.loads(plan_path.read_text())
    weighted = sum(abs(c) * (k + 1) for k, c in enumerate(plan["coefficients"]))
    assert weighted / plan["xi"] <= 0.5 * 0.1
    assert plan["verified_error"] + plan["tail_certificate"] <= 0.1
    code, out, _ = run(capsys, ["verify", "--plan", str(plan_path), "--target", target])
    assert code == 0 and json.loads(out)["verified_error"] == plan["verified_error"]


def test_target_that_is_not_json_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run(capsys, ["diagnose", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: target {str(path)!r} is not valid JSON")


def test_csv_is_locale_free(tmp_path, capsys):
    sym = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 0, "xi": 2})
    code, out, _ = run(capsys, ["eigs", sym, "--n-max", "2"])
    assert code == 0
    assert "," in out and ";" not in out.splitlines()[1]
    assert "0.5" in out  # '.' decimal separator
