import math
from fractions import Fraction

import numpy as np
import pytest

from fockradial.approx import (
    InsufficientDataError,
    delta_error,
    plan_c0,
    plan_convergent,
    plan_finite,
    plan_from_json,
    plan_to_json,
    verify_plan,
)
from fockradial.eigenvalues import gamma_closed_form, gamma_sequence
from fockradial.seqspace import LimitTail, SeqGenerator, SeqWindow, UnknownTail, ZeroTail
from fockradial.symbols import eval_symbol


def zero_window(values):
    return SeqWindow(tuple(values), ZeroTail())


# ---------------------------------------------------------------------------
# delta_error

def test_delta_error_examples():
    assert delta_error(0, 10) == Fraction(1, 10)
    assert delta_error(3, 3) == Fraction(4, 3)


def test_delta_error_hypothesis_refused():
    # needs xi >= (m + 2) / 2
    with pytest.raises(ValueError):
        delta_error(5, 3)
    assert delta_error(4, 3) == Fraction(5, 3)


def brute_sup_vs_delta(m, xi, n_top):
    # exact rational sup of |gamma(n) - delta_m(n)| over the window
    worst = Fraction(0)
    for n in range(n_top + 1):
        value = gamma_closed_form(m, xi, n)
        if n == m:
            value -= 1
        worst = max(worst, abs(value))
    return worst


def test_delta_error_matches_brute_force_rationally():
    assert brute_sup_vs_delta(2, 8, 200) == Fraction(3, 8)
    for m in range(7):
        xi_min = max(2, math.ceil((m + 2) / 2))
        for xi in range(xi_min, xi_min + 3):
            assert brute_sup_vs_delta(m, xi, m + 200) == delta_error(m, xi)


def test_basic_gamma_prefix_property():
    # gamma agrees with the basis sequence through index m
    for m in range(8):
        for xi in (2, 5, 9):
            for n in range(m):
                assert gamma_closed_form(m, xi, n) == 0
            assert gamma_closed_form(m, xi, m) == 1


# ---------------------------------------------------------------------------
# plan_finite

def test_plan_finite_single_spike():
    plan = plan_finite(zero_window([1.0]), 0.2)
    assert plan.n_terms == 1
    assert plan.xi == 10
    assert plan.predicted_bound == pytest.approx(0.1)


def test_plan_finite_zero_target():
    plan = plan_finite(zero_window([0.0, 0.0, 0.0]), 0.3)
    assert plan.predicted_bound == 0.0
    assert plan.xi == 2
    report = verify_plan(plan)
    assert report.verified_error == 0.0
    assert report.passed


def test_plan_finite_two_ones():
    plan = plan_finite(zero_window([1.0, 1.0]), 0.1)
    assert plan.xi == 60
    assert plan.predicted_bound == pytest.approx(3 / 60)


def test_plan_finite_requires_zero_tail_and_positive_eps():
    with pytest.raises(ValueError):
        plan_finite(SeqWindow((1.0,), LimitTail(0.0)), 0.1)
    with pytest.raises(ValueError):
        plan_finite(zero_window([1.0]), 0.0)


def test_plan_finite_scale_respects_admissibility():
    # large support with loose epsilon: the (N+1)/2 floor must kick in
    plan = plan_finite(zero_window([1e-9] * 20), 1.0)
    assert plan.xi >= math.ceil(21 / 2)


# ---------------------------------------------------------------------------
# plan_c0

def test_plan_c0_geometric_strictness():
    # 2^-2 = 0.25 < 0.25 fails on strictness, so N = 3
    target = SeqGenerator("geometric", q=0.5).window(30)
    plan = plan_c0(target, 0.5)
    assert plan.n_terms == 3


def test_plan_c0_keeps_support_of_basis_window():
    target = zero_window([0, 0, 0, 0, 0, 1.0])
    plan = plan_c0(target, 0.1)
    assert plan.n_terms == 6
    assert plan.coefficients == (0j, 0j, 0j, 0j, 0j, 1 + 0j)


def test_plan_c0_inverse_linear_truncation():
    target = SeqGenerator("inverse_plus_one").window(200)
    plan = plan_c0(target, 0.05)
    assert plan.n_terms == 40


def test_plan_c0_insufficient_window():
    target = SeqWindow((1.0, 0.9, 0.8), LimitTail(0.0))
    with pytest.raises(InsufficientDataError):
        plan_c0(target, 0.1)


def test_plan_c0_rejects_wrong_tail():
    with pytest.raises(ValueError):
        plan_c0(SeqWindow((1.0,), LimitTail(2.0)), 0.1)
    with pytest.raises(ValueError):
        plan_c0(SeqWindow((1.0,), UnknownTail()), 0.1)


# ---------------------------------------------------------------------------
# plan_convergent

def test_plan_convergent_constant_target():
    target = SeqWindow((4.0,) * 10, LimitTail(4.0))
    plan = plan_convergent(target, 0.25)
    assert plan.limit == 4.0
    assert plan.predicted_bound == 0.0
    assert all(c == 0 for c in plan.coefficients)
    report = verify_plan(plan)
    assert report.passed
    assert report.verified_error == 0.0


def test_plan_convergent_matches_recentered_c0():
    values = [1.0 + 2.0 ** -n for n in range(40)]
    target = SeqWindow(tuple(values), LimitTail(1.0))
    plan = plan_convergent(target, 0.5)
    recentered = SeqWindow(tuple(v - 1.0 for v in values), LimitTail(0.0))
    inner = plan_c0(recentered, 0.5)
    assert plan.coefficients == inner.coefficients
    assert plan.xi == inner.xi
    assert plan.limit == 1.0


def test_plan_convergent_spike_plus_limit():
    values = [2.5] + [1.5] * 20
    target = SeqWindow(tuple(values), LimitTail(1.5))
    plan = plan_convergent(target, 0.2)
    assert plan.n_terms == 1
    assert plan.coefficients == (1.0 + 0j,)
    assert plan.xi == 10  # synthesis gets half the budget, as the spike case
    assert plan.limit == 1.5


# ---------------------------------------------------------------------------
# verify_plan

def test_verify_delta0_error_is_exact():
    plan = plan_finite(zero_window([1.0]), 0.2)
    report = verify_plan(plan)
    assert report.verified_error == 0.1
    assert report.passed
    assert plan.verified_error == 0.1


def test_verify_two_ones_brute_force():
    # second input: a random complex multi-term plan with a limit offset
    rng = np.random.default_rng(23)
    p = complex(rng.normal(), rng.normal())
    decay = 0.6 ** np.arange(30)
    values = p + (rng.normal(size=30) + 1j * rng.normal(size=30)) * decay
    random_plan = plan_convergent(SeqWindow(tuple(values), LimitTail(p)), 0.1)
    assert random_plan.n_terms >= 5
    for plan, n_verify in ((plan_finite(zero_window([1.0, 1.0]), 0.1), 100), (random_plan, 120)):
        report = verify_plan(plan, n_verify)
        brute = max(
            abs(plan.gamma(n) - plan.target.value_at(n)) for n in range(n_verify + 1)
        )
        assert report.verified_error == brute
        assert report.verified_error <= 0.05
        assert report.passed


def test_verify_rejects_short_window():
    plan = plan_finite(zero_window([1.0, 1.0]), 0.1)
    with pytest.raises(ValueError):
        verify_plan(plan, 1)


def test_verify_rejects_inadmissible_scale():
    # a loaded plan whose scale breaks the monotone-tail hypothesis
    plan = plan_finite(zero_window([0.1] * 10), 1.0)
    plan.xi = 2  # needs xi >= ceil(11 / 2)
    with pytest.raises(ValueError):
        verify_plan(plan)


def test_verify_soundness_randomized():
    rng = np.random.default_rng(17)
    for trial in range(100):
        n_win = int(rng.integers(1, 12))
        epsilon = float(rng.uniform(0.05, 0.6))
        if trial % 2:
            values = rng.normal(size=n_win)
            target = zero_window(values)
            plan = plan_finite(target, epsilon)
        else:
            values = rng.normal(size=n_win) * (0.5 ** np.arange(n_win))
            target = SeqWindow(tuple(values), LimitTail(0.0))
            try:
                plan = plan_c0(target, epsilon)
            except InsufficientDataError:
                continue
        report = verify_plan(plan)
        assert report.passed
        assert report.verified_error + report.tail_certificate <= epsilon


def test_verify_halves_when_scale_doubles():
    plan = plan_finite(zero_window([0.0, 0.0, 0.0, 1.0]), 0.1)
    first = verify_plan(plan).verified_error
    doubled = plan_finite(zero_window([0.0, 0.0, 0.0, 1.0]), 0.1)
    doubled.xi = plan.xi * 2
    second = verify_plan(doubled).verified_error
    assert abs(second / first - 0.5) <= 0.05 * 0.5


def test_plan_symbol_shapes():
    plan = plan_finite(zero_window([1.0, -0.5]), 0.1)
    conv = plan_convergent(SeqWindow((2.0,) * 5, LimitTail(2.0)), 0.1)
    spiked = plan_convergent(
        SeqWindow((3.0,) + (2.0,) * 10, LimitTail(2.0)), 0.2
    )
    # the symbol's closed form is the plan's own gamma, bit for bit
    for each in (plan, conv, spiked):
        seq = gamma_sequence(each.symbol(), 30, engine="closed")
        assert seq.values == [each.gamma(n) for n in range(31)]
    # a constant plan evaluates to its limit everywhere; the others tend to it
    grid = np.linspace(0.0, 5.0, 11)
    assert np.all(eval_symbol(conv.symbol(), grid) == 2.0)
    assert eval_symbol(plan.symbol(), 0.0) != 0.0
    assert eval_symbol(plan.symbol(), 40.0) == 0.0
    assert eval_symbol(spiked.symbol(), 0.0) != 2.0
    assert eval_symbol(spiked.symbol(), 40.0) == 2.0


def test_plan_json_roundtrip():
    target = zero_window([1.0, 0.5j])
    plan = plan_finite(target, 0.1)
    verify_plan(plan)
    payload = plan_to_json(plan)
    again = plan_from_json(payload, target)
    assert again.coefficients == plan.coefficients
    assert again.xi == plan.xi
    assert again.limit == plan.limit
    assert verify_plan(again).verified_error == plan.verified_error


def test_plan_json_rejects_garbage():
    target = zero_window([1.0])
    with pytest.raises(ValueError):
        plan_from_json({"epsilon": 0.1}, target)
    plan = plan_finite(target, 0.2)
    payload = plan_to_json(plan)
    payload["N"] = 7
    with pytest.raises(ValueError):
        plan_from_json(payload, target)
