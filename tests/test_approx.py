import dataclasses
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact import gamma_closed_form
from fockradial.approx import (
    ApproximationPlan,
    InsufficientDataError,
    _weighted_sum,
    plan_c0,
    plan_convergent,
    plan_finite,
    plan_from_json,
    plan_to_json,
    verify_plan,
)
from fockradial.eigenvalues import closed_form_sequence, gamma_sequence
from fockradial.seqspace import LimitTail, SeqGenerator, SeqWindow, UnknownTail, ZeroTail
from fockradial.symbols import eval_symbol


def zero_window(values):
    return SeqWindow(tuple(values), ZeroTail())


# ---------------------------------------------------------------------------
# The basic term's sup error: (m + 1) / xi once xi >= (m + 2) / 2

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
            assert brute_sup_vs_delta(m, xi, m + 200) == Fraction(m + 1, xi)


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
        gammas = closed_form_sequence(plan.coefficients, plan.xi, plan.limit, n_verify).values
        sigma = plan.target.as_array(n_verify + 1)
        brute = max(abs(complex(g) - complex(s)) for g, s in zip(gammas, sigma))
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
    plan = dataclasses.replace(plan, xi=2)  # needs xi >= ceil(11 / 2)
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
    doubled = dataclasses.replace(doubled, xi=plan.xi * 2)
    second = verify_plan(doubled).verified_error
    assert abs(second / first - 0.5) <= 0.05 * 0.5


def test_plan_symbol_shapes():
    plan = plan_finite(zero_window([1.0, -0.5]), 0.1)
    conv = plan_convergent(SeqWindow((2.0,) * 5, LimitTail(2.0)), 0.1)
    spiked = plan_convergent(
        SeqWindow((3.0,) + (2.0,) * 10, LimitTail(2.0)), 0.2
    )
    # the symbol's closed form is the gamma that verify_plan certifies, bit for bit
    for each in (plan, conv, spiked):
        seq = gamma_sequence(each.symbol(), 30, engine="closed")
        assert seq.values == verify_plan(each, 30).gamma.tolist()
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
    report = verify_plan(plan, 60)
    payload = plan_to_json(plan, report)
    again = plan_from_json(payload, target)
    assert again.coefficients == plan.coefficients
    assert again.xi == plan.xi
    assert again.limit == plan.limit
    # the stored window is the one a re-certification uses by default
    assert again.verify_window == 60
    assert verify_plan(again) == report


def test_plan_json_rejects_garbage():
    target = zero_window([1.0])
    with pytest.raises(ValueError):
        plan_from_json({"epsilon": 0.1}, target)
    plan = plan_finite(target, 0.2)
    payload = plan_to_json(plan)
    payload["N"] = 7
    with pytest.raises(ValueError):
        plan_from_json(payload, target)


def _fields(plan):
    """The plan's fields, its target's values as a list of Python complexes; an array has no tuple equality."""
    target = plan.target
    return target.values.tolist(), target.tail, plan.epsilon, plan.xi, plan.coefficients, plan.limit, plan.verify_window


def test_plan_is_frozen_and_verify_leaves_it_unchanged():
    plan = plan_finite(zero_window([1.0, -0.5]), 0.1)
    before = _fields(plan)
    report = verify_plan(plan, 80)
    assert _fields(plan) == before
    assert plan.verify_window is None
    assert plan.n_terms == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.xi = 2 * plan.xi
    # the certificate keys of plan JSON come from the report, or are null without one
    assert plan_to_json(plan)["verified_error"] is None
    payload = plan_to_json(plan, report)
    assert list(payload) == [
        "epsilon", "N", "xi", "coefficients", "p", "predicted_bound",
        "verified_error", "tail_certificate", "verify_window",
    ]
    assert payload["verified_error"] == report.verified_error
    assert payload["tail_certificate"] == report.tail_certificate
    assert payload["verify_window"] == 80


def test_verify_uses_the_plans_window():
    plan = plan_finite(zero_window([1.0]), 0.2)
    assert verify_plan(plan).n_verify == 51
    assert verify_plan(dataclasses.replace(plan, verify_window=7)).n_verify == 7
    # a window of 0 is a window, not a missing one
    empty = plan_finite(zero_window([0.0]), 0.2)
    empty = dataclasses.replace(empty, coefficients=(), verify_window=0)
    report = verify_plan(empty)
    assert report.n_verify == 0
    assert report.passed


_ENTRY = st.sampled_from([0.0, -0.0, 0.5, -0.25, 1e-3, 0.03]) | st.floats(-1.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_ENTRY, _ENTRY), min_size=1, max_size=30),
    st.floats(0.01, 1.0),
)
def test_plan_convergent_is_plan_c0_on_limit_zero(entries, epsilon):
    values = [complex(re, im) for re, im in entries] + [0j]
    target = SeqWindow(tuple(values), LimitTail(0j))
    via_c0 = plan_c0(target, epsilon)
    via_limit = plan_convergent(target, epsilon)
    assert _fields(via_limit) == _fields(via_c0)
    assert json.dumps(plan_to_json(via_limit)) == json.dumps(plan_to_json(via_c0))
    # a limit written as -0.0 gives an equal plan, up to the sign of its zeros
    signed = SeqWindow(tuple(values), LimitTail(complex(-0.0, -0.0)))
    assert plan_convergent(signed, epsilon) == via_c0


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["finite", "c0", "convergent"]),
    st.lists(st.tuples(_ENTRY, _ENTRY), min_size=1, max_size=30),
    st.tuples(_ENTRY, _ENTRY),
    st.floats(0.01, 1.0),
    st.integers(0, 10**6),
)
def test_plan_bounds_are_derived_from_its_inputs(kind, entries, limit, epsilon, extra):
    deviations = [complex(re, im) for re, im in entries]
    if kind == "finite":
        p, plan = 0j, plan_finite(zero_window(deviations), epsilon)
    else:
        # the closing p lets the window fall below any epsilon / 2
        p = complex(*limit) if kind == "convergent" else 0j
        target = SeqWindow(tuple(p + d for d in deviations) + (p,), LimitTail(p))
        plan = (plan_convergent if kind == "convergent" else plan_c0)(target, epsilon)
    past = np.asarray(plan.target.values[plan.n_terms :], dtype=complex) - p
    # np.hypot rounds like abs() of a Python complex; np.abs need not
    assert plan.truncation_bound == float(np.hypot(past.real, past.imag).max(initial=0.0))
    assert plan.predicted_bound <= epsilon
    # any admissible rescaling keeps the truncation term and rescales the synthesis term
    xi = max(2, math.ceil((plan.n_terms + 1) / 2)) + extra
    moved = dataclasses.replace(plan, xi=xi)
    assert moved.truncation_bound == plan.truncation_bound
    assert moved.predicted_bound == _weighted_sum(plan.coefficients) / xi + plan.truncation_bound


# ---------------------------------------------------------------------------
# The three planners against an oracle built apart from them: the null-convergent
# construction by Python abs() through itertools.accumulate, and for a limit p
# the same on a recentered copy of the window, then moved onto the target


def _accumulated_c0(target, epsilon):
    epsilon = float(epsilon)
    threshold = 0.5 * epsilon * (1.0 - 1e-12)
    values = tuple(target.values.tolist())
    sups = list(itertools.accumulate(map(abs, reversed(values)), max, initial=0.0))[::-1]
    n_win = len(target)
    trunc = next((k for k in range(n_win + 1) if sups[k] <= threshold), n_win)
    if trunc == n_win and sups[n_win - 1] > threshold and not isinstance(target.tail, ZeroTail):
        raise InsufficientDataError("window never falls below epsilon / 2")
    return _scaled_plan(target, epsilon, values[:trunc])


def _scaled_plan(target, epsilon, coefficients):
    budget = 0.5 * epsilon
    xi = max(2, math.ceil((len(coefficients) + 1) / 2))
    weighted = sum(abs(c) * (k + 1) for k, c in enumerate(coefficients))
    if weighted != 0.0:
        xi = max(xi, math.ceil(weighted / budget))
        while weighted / xi > budget:
            xi += 1
    return ApproximationPlan(target, epsilon, xi, coefficients, limit=0j)


def _recentered_convergent(target, epsilon):
    p = target.tail.p
    recentered = SeqWindow(tuple(v - p for v in target.values.tolist()), LimitTail(0j))
    return dataclasses.replace(_accumulated_c0(recentered, epsilon), target=target, limit=p)


_SIZED = _ENTRY | st.sampled_from([1e-300, -3e7, 2.5e12]) | st.floats(-1e6, 1e6)


@settings(max_examples=50, deadline=None)
@example([(0.25, 0.0), (0.0, -0.25)], "limit", (0.0, 0.0), 0.5, 0)
@example([(1.0, 0.0), (1.5, 0.0), (0.5, 0.0)], "limit", (1.0, 0.0), 1.0, 3)
@given(
    st.lists(st.tuples(_SIZED, _SIZED), min_size=1, max_size=30),
    st.sampled_from(["zero", "limit"]),
    st.tuples(_ENTRY | st.just(1e6), _ENTRY),
    st.sampled_from([0.5, 1.0, 0.06]) | st.floats(1e-3, 10.0),  # |c| = epsilon / 2 meets the strict test
    st.integers(0, 30),
)
def test_planners_match_the_recentered_construction(entries, tail, limit, epsilon, extra):
    values = tuple(complex(re, im) for re, im in entries)
    p = complex(*limit) if tail == "limit" else 0j
    target = SeqWindow(values, ZeroTail() if tail == "zero" else LimitTail(p))
    cases = [(plan_finite, lambda t, e: _scaled_plan(t, e, tuple(t.values.tolist())))] if tail == "zero" else []
    cases.append((plan_convergent, _recentered_convergent) if tail == "limit" else (plan_c0, _accumulated_c0))
    if tail == "limit" and p == 0:
        cases.append((plan_c0, _accumulated_c0))
    for planner, oracle in cases:
        try:
            expected = oracle(target, epsilon)
        except InsufficientDataError:
            with pytest.raises(InsufficientDataError):
                planner(target, epsilon)
            continue
        plan = planner(target, epsilon)
        # field by field, with the sign of every zero
        assert repr(_fields(plan)) == repr(_fields(expected))
        past = plan.target.values.tolist()[plan.n_terms :]
        assert plan.truncation_bound == max((abs(v - plan.limit) for v in past), default=0.0)
        n_verify = plan.n_terms + extra
        report = verify_plan(plan, n_verify)
        seq = closed_form_sequence(plan.coefficients, plan.xi, plan.limit, n_verify)
        synth_tail = float(np.abs(np.asarray(plan.coefficients, dtype=complex)) @ seq.next_terms)
        rest = np.asarray(values[n_verify + 1 :], dtype=complex) - plan.limit
        assert report.tail_certificate == synth_tail + float(np.hypot(rest.real, rest.imag).max(initial=0.0))
