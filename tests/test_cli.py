import csv
import io
import json
import math

import pytest

from fockradial.cli import main


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


def test_eigs_output_file(tmp_path, capsys):
    sym = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 0, "xi": 2})
    out_path = tmp_path / "table.csv"
    code, out, _ = run(capsys, ["eigs", sym, "--n-max", "2", "-o", str(out_path)])
    assert code == 0
    assert out == ""
    header, data = read_csv(out_path.read_text(encoding="utf-8"))
    assert len(data) == 3


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
    code, _, _ = run(capsys, ["approximate", target, "--epsilon", "-1"])
    assert code == 1
    code, _, _ = run(capsys, ["approximate"])
    assert code == 1


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


def test_diagnose_constant_target_is_all_zero(tmp_path, capsys):
    target = write_json(
        tmp_path / "t.json",
        {"values": [2.0] * 50, "tail": {"kind": "limit", "p": 2.0}},
    )
    code, out, _ = run(capsys, ["diagnose", target, "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert all(r["value"] == 0.0 for r in rows)


def test_generator_target_validation(capsys):
    code, _, _ = run(capsys, ["diagnose", "generator:warp?n=10"])
    assert code == 2
    code, _, _ = run(capsys, ["diagnose", "generator:geometric?q=2&n=10"])
    assert code == 2


def test_csv_is_locale_free(tmp_path, capsys):
    sym = write_json(tmp_path / "s.json", {"type": "laguerre_basic", "m": 0, "xi": 2})
    code, out, _ = run(capsys, ["eigs", sym, "--n-max", "2"])
    assert code == 0
    assert "," in out and ";" not in out.splitlines()[1]
    assert "0.5" in out  # '.' decimal separator
