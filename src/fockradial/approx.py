"""Constructive approximation of prescribed eigenvalue sequences.

Given a target sequence window, the planner picks a truncation length N, a
single integer scale xi, and uses the target's leading values as coefficients
of a Laguerre-Gaussian combination.  Each basic term of degree m and scale xi
reproduces the standard basis sequence at position m up to a sup error of
exactly (m + 1) / xi (valid once xi >= (m + 2) / 2), so the synthesis error
is controlled by sum |coeff_k| (k + 1) / xi and shrinks linearly in 1 / xi.

Planning budgets an epsilon/2 for truncating the target and an epsilon/2 for
the synthesis, mirroring how the density argument splits the error.
`verify_plan` then certifies the result: a brute-force maximum of the actual
eigenvalue error over a verification window, plus an analytic bound for all
later indices that uses the monotone decay of each term's tail.  The
eigenvalues come from the closed-form sequence engine, so certifying a plan
of N terms over n_verify indices costs O(N * n_verify) float operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .eigenvalues import closed_form_sequence
from .laguerre import _check_index
from .seqspace import (
    LimitTail,
    SeqWindow,
    ZeroTail,
    scalar_from_json,
    scalar_to_json,
)
from .symbols import (
    LaguerreCombo,
    Symbol,
    _check_scale,
)

__all__ = [
    "ApproximationPlan",
    "InsufficientDataError",
    "VerifyReport",
    "delta_error",
    "plan_c0",
    "plan_convergent",
    "plan_finite",
    "plan_from_json",
    "plan_to_json",
    "verify_plan",
]

# strict "<" thresholds get a one-sided guard so float boundary cases are
# resolved the same way on every run
_STRICT = 1.0 - 1e-12


class InsufficientDataError(ValueError):
    """The window is too short to certify the required tail condition."""


def delta_error(m: int, xi: int) -> Fraction:
    """Exact sup distance between the basic term's eigenvalues and the basis sequence.

    Equals (m + 1) / xi, provided xi >= (m + 2) / 2; below that threshold the
    exact-sup formula is not established and the call is refused.
    """
    m = _check_index(m)
    xi = _check_scale(xi)
    if 2 * xi < m + 2:
        raise ValueError(f"need xi >= (m + 2) / 2, got xi={xi} for m={m}")
    return Fraction(m + 1, xi)


@dataclass
class ApproximationPlan:
    target: SeqWindow
    epsilon: float
    n_terms: int
    xi: int
    coefficients: tuple[complex, ...]
    limit: complex
    predicted_bound: float
    verified_error: float | None = None
    tail_certificate: float | None = None
    verify_window: int | None = None
    # the truncation part of predicted_bound: sup of the (recentered) target
    # past the first N values; set by the planners, not stored in plan JSON
    truncation_bound: float | None = None

    def symbol(self) -> Symbol:
        """The defining symbol the plan realizes."""
        return LaguerreCombo(self.xi, self.coefficients, self.limit)

    def gamma(self, n: int) -> complex:
        """gamma(n) with the same bits as `verify_plan` computes it."""
        return complex(closed_form_sequence(self.coefficients, self.xi, self.limit, n).values[n])


@dataclass(frozen=True)
class VerifyReport:
    """A plan's certificate, with the window it was computed from.

    gamma, sigma and abs_error hold gamma(n), the completed target sigma(n)
    and |gamma(n) - sigma(n)| for n = 0..n_verify; verified_error is the
    maximum of abs_error.
    """

    verified_error: float
    tail_certificate: float
    epsilon: float
    passed: bool
    n_verify: int
    gamma: np.ndarray = field(repr=False, compare=False)
    sigma: np.ndarray = field(repr=False, compare=False)
    abs_error: np.ndarray = field(repr=False, compare=False)

    @property
    def total(self) -> float:
        return self.verified_error + self.tail_certificate


def _synthesize(coefficients: tuple[complex, ...], budget: float) -> tuple[int, float]:
    """Smallest admissible scale with sum |c_k| (k + 1) / xi <= budget.

    Admissible means xi >= max(2, ceil((N + 1) / 2)), so every term of degree
    m <= N - 1 satisfies the exact-sup hypothesis xi >= (m + 2) / 2.
    """
    n_terms = len(coefficients)
    xi_min = max(2, math.ceil((n_terms + 1) / 2))
    weighted = sum(abs(c) * (k + 1) for k, c in enumerate(coefficients))
    if weighted == 0.0:
        return xi_min, 0.0
    xi = max(xi_min, math.ceil(weighted / budget))
    while weighted / xi > budget:
        xi += 1
    return xi, weighted / xi


def plan_finite(target: SeqWindow, epsilon: float) -> ApproximationPlan:
    """Plan for a finitely supported target: the whole window becomes coefficients.

    The scale is the smallest admissible one keeping the per-term error sum
    within epsilon / 2.
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if not isinstance(target.tail, ZeroTail):
        raise ValueError("finite planning needs a zero-tail target")
    coefficients = target.values
    xi, bound = _synthesize(coefficients, 0.5 * epsilon)
    return ApproximationPlan(
        target=target,
        epsilon=float(epsilon),
        n_terms=len(coefficients),
        xi=xi,
        coefficients=coefficients,
        limit=0j,
        predicted_bound=bound,
        truncation_bound=0.0,
    )


def _tail_suffix_sups(values: tuple[complex, ...]) -> list[float]:
    """sups[k] = max |values[k:]| (sups[len] = 0)."""
    sups = [0.0] * (len(values) + 1)
    for k in range(len(values) - 1, -1, -1):
        sups[k] = max(abs(values[k]), sups[k + 1])
    return sups


def plan_c0(target: SeqWindow, epsilon: float) -> ApproximationPlan:
    """Plan for a null-convergent target.

    Splits the budget in two: truncation at the smallest N whose remaining
    values stay strictly below epsilon / 2 (window evidence plus the tail
    descriptor), and synthesis of the prefix within the other epsilon / 2.
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    zero_tail = isinstance(target.tail, ZeroTail)
    limit_zero = isinstance(target.tail, LimitTail) and target.tail.p == 0
    if not (zero_tail or limit_zero):
        raise ValueError("null-convergent planning needs a zero or limit-0 tail")
    threshold = 0.5 * epsilon * _STRICT
    sups = _tail_suffix_sups(target.values)
    n_win = len(target)
    trunc = next((k for k in range(n_win + 1) if sups[k] <= threshold), n_win)
    if trunc == n_win and sups[n_win - 1] > threshold and not zero_tail:
        raise InsufficientDataError(
            "window never falls below epsilon / 2; cannot certify the tail"
        )
    coefficients = target.values[:trunc]
    xi, synth_bound = _synthesize(coefficients, 0.5 * epsilon)
    return ApproximationPlan(
        target=target,
        epsilon=float(epsilon),
        n_terms=trunc,
        xi=xi,
        coefficients=coefficients,
        limit=0j,
        predicted_bound=synth_bound + sups[trunc],
        truncation_bound=sups[trunc],
    )


def plan_convergent(target: SeqWindow, epsilon: float) -> ApproximationPlan:
    """Plan for a convergent target with limit p: plan the recentered part, keep p as offset."""
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if not isinstance(target.tail, LimitTail):
        raise ValueError("convergent planning needs a limit tail")
    p = target.tail.p
    recentered = SeqWindow(tuple(v - p for v in target.values), LimitTail(0j))
    inner = plan_c0(recentered, epsilon)
    return ApproximationPlan(
        target=target,
        epsilon=float(epsilon),
        n_terms=inner.n_terms,
        xi=inner.xi,
        coefficients=inner.coefficients,
        limit=p,
        predicted_bound=inner.predicted_bound,
        truncation_bound=inner.truncation_bound,
    )


def verify_plan(plan: ApproximationPlan, n_verify: int | None = None) -> VerifyReport:
    """Certify a plan empirically plus analytically.

    verified_error is the brute-force max of |gamma(n) - sigma(n)| over
    n <= n_verify, where sigma is the target window completed by its tail
    descriptor (`value_at` returns the limit past the window), so the
    certificate covers that window-completed sequence.  The eigenvalues come
    from `closed_form_sequence`: the Pascal recurrence on
    a_k(n) = binom(n, k) xi^-(n-k), O(N * n_verify) float operations in all.
    The tail certificate covers all n > n_verify: each term's eigenvalue
    tail is nonincreasing there (the admissible-scale invariant), so it is
    bounded by sum_k |c_k| a_k(n_verify + 1), one more step of the same
    recurrence, plus the window's remaining deviation from the limit.
    """
    if n_verify is None:
        n_verify = max(4 * plan.n_terms, plan.n_terms + 50)
    if n_verify < plan.n_terms:
        raise ValueError("n_verify must be at least the truncation length")
    xi_min = max(2, math.ceil((plan.n_terms + 1) / 2))
    if plan.xi < xi_min:
        raise ValueError(
            f"plan scale {plan.xi} is below {xi_min}; the tail certificate's "
            "monotone-decay hypothesis does not hold"
        )
    seq = closed_form_sequence(plan.coefficients, plan.xi, plan.limit, n_verify)
    sigma = plan.target.as_array(n_verify + 1)
    diff = seq.values - sigma
    # hypot rounds like abs() of a Python complex, so the maximum matches a
    # per-index recomputation bit for bit
    abs_error = np.hypot(diff.real, diff.imag)
    worst = float(abs_error.max())
    synth_tail = float(np.abs(np.asarray(plan.coefficients, dtype=complex)) @ seq.next_terms)
    rest = np.asarray(plan.target.values[n_verify + 1 :], dtype=complex) - plan.limit
    target_tail = float(np.hypot(rest.real, rest.imag).max(initial=0.0))
    tail_certificate = synth_tail + target_tail
    passed = worst + tail_certificate <= plan.epsilon
    plan.verified_error = worst
    plan.tail_certificate = tail_certificate
    plan.verify_window = n_verify
    return VerifyReport(
        worst, tail_certificate, plan.epsilon, passed, n_verify, seq.values, sigma, abs_error
    )


# ---------------------------------------------------------------------------
# Plan JSON schema

def plan_to_json(plan: ApproximationPlan) -> dict:
    return {
        "epsilon": plan.epsilon,
        "N": plan.n_terms,
        "xi": plan.xi,
        "coefficients": [scalar_to_json(c) for c in plan.coefficients],
        "p": scalar_to_json(plan.limit),
        "predicted_bound": plan.predicted_bound,
        "verified_error": plan.verified_error,
        "tail_certificate": plan.tail_certificate,
        "verify_window": plan.verify_window,
    }


def plan_from_json(obj, target: SeqWindow) -> ApproximationPlan:
    try:
        coefficients = tuple(scalar_from_json(c) for c in obj["coefficients"])
        plan = ApproximationPlan(
            target=target,
            epsilon=float(obj["epsilon"]),
            n_terms=int(obj["N"]),
            xi=int(obj["xi"]),
            coefficients=coefficients,
            limit=scalar_from_json(obj["p"]),
            predicted_bound=float(obj["predicted_bound"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid plan JSON: {exc}") from None
    if plan.n_terms != len(coefficients):
        raise ValueError("plan JSON is inconsistent: N != len(coefficients)")
    if plan.verify_window is None and obj.get("verify_window") is not None:
        plan.verify_window = int(obj["verify_window"])
    if obj.get("verified_error") is not None:
        plan.verified_error = float(obj["verified_error"])
    if obj.get("tail_certificate") is not None:
        plan.tail_certificate = float(obj["tail_certificate"])
    return plan
