"""Constructive approximation of prescribed eigenvalue sequences.

Given a target sequence window with limit p, the planner picks a truncation
length N, a single integer scale xi, and uses the target's first N deviations
from p as coefficients of a Laguerre-Gaussian combination offset by p.  Each
basic term of degree m and scale xi reproduces the standard basis sequence at
position m up to a sup error of exactly (m + 1) / xi (valid once
xi >= (m + 2) / 2), so the synthesis error is controlled by
sum |coeff_k| (k + 1) / xi and shrinks linearly in 1 / xi.

Planning budgets an epsilon/2 for truncating the target and an epsilon/2 for
the synthesis, mirroring how the density argument splits the error.  A plan
is immutable and holds no certificate.  `verify_plan` computes one and
returns it as a `VerifyReport`: a brute-force maximum of the actual
eigenvalue error over a verification window, plus an analytic bound for all
later indices that uses the monotone decay of each term's tail.  The
eigenvalues come from the closed-form sequence engine, so certifying a plan
of N terms over n_verify indices costs O(N * n_verify) float operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigenvalues import closed_form_sequence
from .laguerre import _check_index, _check_positive
from .seqspace import LimitTail, SeqWindow, ZeroTail, scalar_from_json, scalar_to_json
from .symbols import (
    LaguerreCombo,
    Symbol,
    _check_scale,
)

__all__ = [
    "ApproximationPlan",
    "InsufficientDataError",
    "VerifyReport",
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


@dataclass(frozen=True)
class ApproximationPlan:
    """The symbol limit + sum_k coefficients[k] basic(k, xi), planned for target within epsilon.

    The plan stores only its inputs; both bounds are derived from them, so
    `dataclasses.replace` (a new xi, say) never leaves a stale bound.
    verify_window is the window the plan is certified over; None means the
    default max(4N, N + 50).  The certificate itself is the `VerifyReport`
    that `verify_plan` returns.
    """

    target: SeqWindow
    epsilon: float
    xi: int
    coefficients: tuple[complex, ...]
    limit: complex
    verify_window: int | None = None

    @property
    def n_terms(self) -> int:
        return len(self.coefficients)

    @property
    def truncation_bound(self) -> float:
        """max |sigma(n) - p| over the window past the first N values; 0 when there are none."""
        return float(_deviation_sups(self.target.values[self.n_terms :], self.limit)[0])

    @property
    def predicted_bound(self) -> float:
        """The synthesis bound sum_k |c_k| (k + 1) / xi plus the truncation bound."""
        return _weighted_sum(self.coefficients) / self.xi + self.truncation_bound

    def symbol(self) -> Symbol:
        """The defining symbol the plan realizes."""
        return LaguerreCombo(self.xi, self.coefficients, self.limit)


@dataclass(frozen=True)
class VerifyReport:
    """A plan's certificate, with the window it was computed from; plans hold none.

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


def _min_admissible_scale(n_terms: int) -> int:
    """xi_min = max(2, ceil((N + 1) / 2)), the smallest admissible scale for N terms.

    At xi >= xi_min every term of degree m <= N - 1 satisfies the exact-sup
    hypothesis xi >= (m + 2) / 2, and its eigenvalue tail decays monotonically.
    """
    return max(2, math.ceil((n_terms + 1) / 2))


def _weighted_sum(coefficients) -> float:
    """sum_k |c_k| (k + 1): the synthesis error bound times the scale xi."""
    return sum(abs(c) * (k + 1) for k, c in enumerate(coefficients))


def _deviation_sups(values, limit: complex) -> np.ndarray:
    """sups[k] = max |values[n] - limit| over n >= k, and sups[len] = 0; hypot rounds like abs()."""
    with np.errstate(over="ignore"):
        diff = values - limit
        deviation = np.hypot(diff.real, diff.imag)
    return np.append(np.maximum.accumulate(deviation[::-1])[::-1], 0.0)


def _plan(target: SeqWindow, epsilon: float, limit: complex, n_terms: int | None = None) -> ApproximationPlan:
    """c_k = sigma(k) - limit for k < N, at the least admissible xi with sum |c_k| (k + 1) / xi <= epsilon / 2.

    n_terms None takes the smallest N past which the window stays strictly
    within epsilon / 2 of the limit.  OverflowError if no float xi exists.
    """
    if n_terms is None:
        sups = _deviation_sups(target.values, limit)
        n_terms = int(np.argmax(sups <= 0.5 * epsilon * _STRICT))
        if n_terms == len(target) and not isinstance(target.tail, ZeroTail):
            raise InsufficientDataError("window never falls below epsilon / 2; cannot certify the tail")
    with np.errstate(over="ignore"):  # a deviation past the float range is inf, which leaves no scale
        coefficients = tuple((target.values[:n_terms] - limit).tolist())
    budget = 0.5 * epsilon
    xi = _min_admissible_scale(n_terms)
    weighted = _weighted_sum(coefficients)
    if weighted != 0.0:
        if not math.isfinite(weighted / budget):
            raise OverflowError("no scale xi: sum |c_k| (k + 1) / (epsilon / 2) is past the float range")
        xi = max(xi, math.ceil(weighted / budget))
        while weighted / xi > budget:
            xi += 1
    return ApproximationPlan(target, epsilon, xi, coefficients, limit)


def plan_finite(target: SeqWindow, epsilon: float) -> ApproximationPlan:
    """Plan for a finitely supported target: the whole window becomes coefficients.

    The scale is the smallest admissible one keeping the per-term error sum
    within epsilon / 2.
    """
    epsilon = _check_positive(epsilon, "epsilon")
    if not isinstance(target.tail, ZeroTail):
        raise ValueError("finite planning needs a zero-tail target")
    return _plan(target, epsilon, 0j, len(target))


def plan_c0(target: SeqWindow, epsilon: float) -> ApproximationPlan:
    """Plan for a null-convergent target.

    Splits the budget in two: truncation at the smallest N whose remaining
    values stay strictly below epsilon / 2 (window evidence plus the tail
    descriptor), and synthesis of the prefix within the other epsilon / 2.
    """
    epsilon = _check_positive(epsilon, "epsilon")
    if target.tail not in (ZeroTail(), LimitTail(0j)):
        raise ValueError("null-convergent planning needs a zero or limit-0 tail")
    return _plan(target, epsilon, 0j)


def plan_convergent(target: SeqWindow, epsilon: float) -> ApproximationPlan:
    """Plan for a convergent target with limit p: the `plan_c0` recipe on sigma - p, offset by p."""
    if not isinstance(target.tail, LimitTail):
        raise ValueError("convergent planning needs a limit tail")
    epsilon = _check_positive(epsilon, "epsilon")
    return _plan(target, epsilon, target.tail.p)


def verify_plan(plan: ApproximationPlan, n_verify: int | None = None) -> VerifyReport:
    """Certify a plan empirically plus analytically; the plan is not changed.

    n_verify defaults to the plan's verify_window, and to max(4N, N + 50)
    when that is None.  verified_error is the brute-force max of
    |gamma(n) - sigma(n)| over n <= n_verify, where sigma is the target
    window completed by its tail descriptor (`as_array` fills in the limit
    past the window), so the certificate covers that window-completed
    sequence.  The eigenvalues come from `closed_form_sequence`: the Pascal
    recurrence on a_k(n) = binom(n, k) xi^-(n-k), O(N * n_verify) float
    operations in all.
    The tail certificate covers all n > n_verify: each term's eigenvalue
    tail is nonincreasing there (the admissible-scale invariant), so it is
    bounded by sum_k |c_k| a_k(n_verify + 1), one more step of the same
    recurrence, plus the window's remaining deviation from the limit.
    """
    if n_verify is None:
        n_verify = plan.verify_window
    if n_verify is None:
        n_verify = max(4 * plan.n_terms, plan.n_terms + 50)
    if n_verify < plan.n_terms:
        raise ValueError("n_verify must be at least the truncation length")
    xi_min = _min_admissible_scale(plan.n_terms)
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
    target_tail = float(_deviation_sups(plan.target.values[n_verify + 1 :], plan.limit)[0])
    tail_certificate = synth_tail + target_tail
    passed = worst + tail_certificate <= plan.epsilon
    return VerifyReport(
        worst, tail_certificate, plan.epsilon, passed, n_verify, seq.values, sigma, abs_error
    )


# ---------------------------------------------------------------------------
# Plan JSON schema

def plan_to_json(plan: ApproximationPlan, report: VerifyReport | None = None) -> dict:
    """The plan's JSON object; the three certificate keys come from report (null without one)."""
    return {
        "epsilon": plan.epsilon,
        "N": plan.n_terms,
        "xi": plan.xi,
        "coefficients": [scalar_to_json(c) for c in plan.coefficients],
        "p": scalar_to_json(plan.limit),
        "predicted_bound": plan.predicted_bound,
        "verified_error": None if report is None else report.verified_error,
        "tail_certificate": None if report is None else report.tail_certificate,
        "verify_window": None if report is None else report.n_verify,
    }


def plan_from_json(obj, target: SeqWindow) -> ApproximationPlan:
    """Read a plan back; a stored verify_window is the window `verify_plan` certifies over."""
    try:
        coefficients = tuple(scalar_from_json(c) for c in obj["coefficients"])
        n_terms = _check_index(obj["N"], "N")
        window = obj.get("verify_window")
        plan = ApproximationPlan(
            target=target,
            epsilon=_check_positive(obj["epsilon"], "epsilon"),
            xi=_check_scale(obj["xi"]),
            coefficients=coefficients,
            limit=scalar_from_json(obj["p"]),
            verify_window=None if window is None else _check_index(window, "verify_window"),
        )
        plan.symbol()  # the symbol's checks reject non-finite coefficients and p
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid plan JSON: {exc}") from None
    if n_terms != len(coefficients):
        raise ValueError("plan JSON is inconsistent: N != len(coefficients)")
    return plan
