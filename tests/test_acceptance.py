"""End-to-end acceptance checks, one test per headline guarantee.

Each test pins the stated tolerance and runtime budget.  The conftest hook
prints one PASS/FAIL line per criterion at the end of the run.
"""

import dataclasses
import json
import math
import time
from fractions import Fraction

import numpy as np

from exact import gamma_closed_form
from fockradial.approx import plan_finite, verify_plan
from fockradial.cli import main
from fockradial.eigenvalues import QuadConfig, gamma_quadrature, shifted_gamma_residual
from fockradial.seqspace import (
    LimitTail,
    SeqGenerator,
    SeqWindow,
    ZeroTail,
    lipschitz_seminorm,
    modulus_of_continuity,
    sqrt_dist,
    vp_smooth,
)
from fockradial.symbols import CallableSymbol, LaguerreCombo, basic_symbol


def test_criterion_1_closed_form_fidelity():
    start = time.perf_counter()
    cfg = QuadConfig()
    for m in range(11):
        for xi in (2, 4, 8):
            sym = basic_symbol(m, xi)
            for n in range(201):
                got = gamma_quadrature(sym, n, cfg).value
                want = float(gamma_closed_form(m, xi, n))
                assert abs(got - want) <= max(1e-9, 1e-6 * abs(want)), (m, xi, n)
    assert time.perf_counter() - start < 60.0


def test_criterion_2_exact_error_norm():
    start = time.perf_counter()
    for m in range(16):
        xi_min = max(2, math.ceil((m + 2) / 2))
        for xi in range(xi_min, xi_min + 5):
            # prefix property: gamma agrees with the basis sequence through m
            for n in range(m):
                assert gamma_closed_form(m, xi, n) == 0
            assert gamma_closed_form(m, xi, m) == 1
            # brute-force rational sup over the window
            worst = Fraction(0)
            for n in range(m + 201):
                diff = gamma_closed_form(m, xi, n) - (1 if n == m else 0)
                worst = max(worst, abs(diff))
            assert worst == Fraction(m + 1, xi), (m, xi)
            # the monotone tail certifies the truncation at the window end:
            # past n = m the values only decrease, so the sup is inside
            tail_a = gamma_closed_form(m, xi, m + 200)
            tail_b = gamma_closed_form(m, xi, m + 201)
            assert tail_b <= tail_a < Fraction(m + 1, xi)
    assert time.perf_counter() - start < 5.0


def test_criterion_3_constant_symbol():
    start = time.perf_counter()
    one = LaguerreCombo(offset=1.0)
    cfg = QuadConfig()
    for n in range(501):
        assert abs(gamma_quadrature(one, n, cfg).value - 1.0) <= 1e-10, n
    assert time.perf_counter() - start < 30.0


def test_criterion_4_shift_identity():
    start = time.perf_counter()
    symbols = [
        LaguerreCombo(offset=1.0),
        CallableSymbol(lambda x: np.exp(-(x**2)), sup_bound=1.0),
        basic_symbol(0, 2),
        basic_symbol(1, 4),
    ]
    for sym in symbols:
        for j in (1, 2):
            assert shifted_gamma_residual(sym, j, 20) < 1e-6, (sym, j)
    assert time.perf_counter() - start < 60.0


def test_criterion_5_vallee_poussin_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    for trial in range(200):
        n_win = int(rng.integers(40, 160))
        values = rng.uniform(-1, 1, size=n_win) + 1j * rng.uniform(-1, 1, size=n_win)
        if trial % 2:
            tail = ZeroTail()
        else:
            tail = LimitTail(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        sigma = SeqWindow(tuple(values), tail)
        for delta in (0.1, 0.3, 0.7):
            y = vp_smooth(sigma, delta)
            sup_diff = max(abs(a - b) for a, b in zip(y.values, sigma.values))
            assert sup_diff <= modulus_of_continuity(sigma, delta) + 1e-12
            bound = 4 * math.sqrt(2) * sigma.sup_norm / delta + 1e-9
            assert lipschitz_seminorm(y) <= bound
    assert time.perf_counter() - start < 10.0


def test_criterion_6_metric_inequalities():
    start = time.perf_counter()
    top = 10_000
    sq = np.sqrt(np.arange(top + 2, dtype=float))
    k = np.arange(top + 1)
    inv_sqrt6 = 1.0 / math.sqrt(6.0)
    for j0 in range(0, top, 256):
        j = np.arange(j0, min(j0 + 256, top))
        pair_mask = k[None, :] > j[:, None]
        rho = sq[k][None, :] - sq[j][:, None]
        rho_next = sq[k + 1][None, :] - sq[j + 1][:, None]
        # shift-distance sandwich, exhaustively (3e-14 absorbs sqrt rounding)
        assert np.all(rho_next[pair_mask] <= rho[pair_mask] + 3e-14)
        assert np.all(inv_sqrt6 * rho[pair_mask] <= rho_next[pair_mask] + 3e-14)
        # min-index bound wherever the distance is small
        small = pair_mask & (rho < 0.5) & (rho > 0)
        if small.any():
            bound = 1.0 / (2.0 * rho[small]) ** 2 - 1.0
            mins = np.broadcast_to(j[:, None], rho.shape)[small]
            assert np.all(mins >= bound - 1e-6)
    assert time.perf_counter() - start < 20.0


def test_criterion_7_density_demo(tmp_path, capsys):
    start = time.perf_counter()
    # null-convergent target sigma(n) = 1/(n+1)
    inv = {
        "values": [1.0 / (n + 1) for n in range(200)],
        "tail": {"kind": "limit", "p": 0.0},
    }
    inv_path = tmp_path / "inverse.json"
    inv_path.write_text(json.dumps(inv))
    plan_path = tmp_path / "plan1.json"
    code = main(
        [
            "approximate",
            str(inv_path),
            "--epsilon",
            "0.05",
            "--plan-out",
            str(plan_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    plan = json.loads(plan_path.read_text())
    assert plan["verified_error"] + plan["tail_certificate"] <= 0.05

    # convergent target sigma(n) = 1 + 2^-n with limit 1
    conv = {
        "values": [1.0 + 2.0**-n for n in range(80)],
        "tail": {"kind": "limit", "p": 1.0},
    }
    conv_path = tmp_path / "convergent.json"
    conv_path.write_text(json.dumps(conv))
    plan_path2 = tmp_path / "plan2.json"
    code = main(
        [
            "approximate",
            str(conv_path),
            "--epsilon",
            "0.1",
            "--plan-out",
            str(plan_path2),
        ]
    )
    capsys.readouterr()
    assert code == 0
    plan2 = json.loads(plan_path2.read_text())
    assert plan2["verified_error"] + plan2["tail_certificate"] <= 0.1
    assert plan2["p"] == 1.0
    assert time.perf_counter() - start < 30.0


def test_criterion_8_convergence_rate():
    start = time.perf_counter()
    delta3 = SeqWindow((0.0, 0.0, 0.0, 1.0), ZeroTail())
    plan = plan_finite(delta3, 0.1)
    base = verify_plan(plan).verified_error
    doubled = plan_finite(delta3, 0.1)
    doubled = dataclasses.replace(doubled, xi=plan.xi * 2)
    halved = verify_plan(doubled).verified_error
    assert abs(halved / base - 0.5) <= 0.05 * 0.5
    assert time.perf_counter() - start < 5.0


def test_criterion_9_sequence_class_diagnostics():
    start = time.perf_counter()
    cos = SeqGenerator("cos_sqrt").window(100_000)
    assert lipschitz_seminorm(cos) <= 1.0 + 1e-12

    rough = SeqGenerator("sqrt_abs_sin_pi_sqrt").window(10_001)
    assert lipschitz_seminorm(rough) > 5.0

    # Holder-1/2 bound on sampled pairs of the non-Lipschitz sequence
    rng = np.random.default_rng(9)
    values = np.asarray(rough.values)
    idx_j = rng.integers(0, len(values), size=200_000)
    idx_k = rng.integers(0, len(values), size=200_000)
    rho = np.abs(np.sqrt(idx_j.astype(float)) - np.sqrt(idx_k.astype(float)))
    gap = np.abs(values[idx_j] - values[idx_k])
    assert np.all(gap <= np.sqrt(math.pi * rho) + 1e-12)
    assert time.perf_counter() - start < 20.0
