"""Radial defining symbols on [0, oo).

The central family is the Laguerre-Gaussian symbol of degree m and integer
scale xi >= 2,

    basic(m, xi)(x) = (-1)^m xi^(m+1) exp(-(xi - 1) x^2) L_m(xi x^2).

Every structured symbol is one `LaguerreCombo`: a finite combination
sum_k c_k basic(k, xi) sharing one scale, plus a constant offset p.  A
constant has no terms, and basic(m, xi) has one-hot coefficients.  Black-box
functions are `CallableSymbol`s.  Evaluation combines the scale power, the
Gaussian factor and the polynomial magnitude in log space with explicit sign
tracking, so large m and xi neither overflow the power nor lose the
underflowing Gaussian prematurely.

Averaging a symbol j times shifts its eigenvalue sequence left by j; the j
exponential averages compose into one expectation E[g(sqrt(r + G))] with G
Gamma(j, 1)-distributed, which `fockradial.eigenvalues` evaluates through
`eval_symbol`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

from .laguerre import _check_index, laguerre_eval_all
from .seqspace import scalar_from_json, scalar_to_json

__all__ = [
    "CallableSymbol",
    "LaguerreCombo",
    "Symbol",
    "basic_symbol",
    "combo_symbol",
    "describe_symbol",
    "eval_symbol",
    "sup_estimate",
    "symbol_from_json",
    "symbol_to_json",
    "with_limit_offset",
]


def _check_scale(xi) -> int:
    if isinstance(xi, bool) or not isinstance(xi, (int, np.integer)):
        raise ValueError(f"scale xi must be an integer, got {xi!r}")
    if xi < 2:
        raise ValueError(f"scale xi must be >= 2, got {xi}")
    return int(xi)


@dataclass(frozen=True)
class LaguerreCombo:
    """sum_k coefficients[k] * basic(k, xi) + offset.

    With no coefficients this is the constant `offset`, whose scale is
    never used.
    """

    xi: int = 2
    coefficients: tuple[complex, ...] = ()
    offset: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "xi", _check_scale(self.xi))
        object.__setattr__(self, "coefficients", tuple(complex(c) for c in self.coefficients))
        object.__setattr__(self, "offset", complex(self.offset))


@dataclass(frozen=True)
class CallableSymbol:
    """A user-supplied bounded evaluator x -> value.

    `sup_bound` is declared by the caller and used only for diagnostics and
    integration tail budgets; it is not verified.
    """

    evaluator: Callable
    sup_bound: float = 1.0


Symbol = Union[LaguerreCombo, CallableSymbol]


def basic_symbol(m: int, xi: int) -> LaguerreCombo:
    """The degree-m, scale-xi Laguerre-Gaussian symbol."""
    m = _check_index(m)
    return LaguerreCombo(xi, (0.0,) * m + (1.0,))


def combo_symbol(coeffs, xi: int) -> LaguerreCombo:
    """Linear combination sum_k coeffs[k] * basic_symbol(k, xi)."""
    coeffs = tuple(coeffs)
    if not coeffs:
        raise ValueError("combo needs at least one coefficient")
    return LaguerreCombo(xi, coeffs)


def with_limit_offset(u: LaguerreCombo, p) -> LaguerreCombo:
    """u plus the constant p; a combination plus p tends to p at infinity."""
    if not isinstance(u, LaguerreCombo):
        raise ValueError("offset applies to a structured symbol")
    return replace(u, offset=u.offset + complex(p))


# ---------------------------------------------------------------------------
# Evaluation

def _eval_terms(sym: LaguerreCombo, x: np.ndarray) -> np.ndarray:
    """sum_k c_k basic(k, xi) at the points x, without the offset.

    Only the terms with a nonzero coefficient get a log magnitude
    (k + 1) ln xi + ln |L_k(xi x^2)|.  The largest one is factored out per
    point before the shared Gaussian is applied, which keeps xi^(k+1)
    representable for any admissible k.  Real coefficients keep the
    arithmetic real.
    """
    coeffs = np.asarray(sym.coefficients, dtype=complex)
    rows = np.flatnonzero(coeffs)
    if not rows.size:
        return np.zeros_like(x)
    weights = coeffs[rows]
    if not weights.imag.any():
        weights = weights.real
    weights = weights * np.where(rows % 2, -1.0, 1.0)  # the (-1)^k of each term
    xi = sym.xi
    lag = laguerre_eval_all(int(rows[-1]), xi * x * x)[rows]
    log_xi = np.log(x.dtype.type(xi))
    with np.errstate(divide="ignore"):
        log_terms = (rows + 1)[:, None] * log_xi + np.log(np.abs(lag))
    peak = np.max(log_terms, axis=0)
    peak_ok = np.isfinite(peak)
    safe_peak = np.where(peak_ok, peak, 0.0)
    mix = weights @ np.copysign(np.exp(log_terms - safe_peak), lag)
    with np.errstate(over="ignore"):
        envelope = np.exp(safe_peak - (xi - 1) * x * x)
    return np.where(peak_ok, mix * envelope, 0.0)


def _eval_callable(fn: Callable, x: np.ndarray) -> np.ndarray:
    """fn at the points x, called once on the array when fn is vectorized."""
    try:
        with warnings.catch_warnings():
            # scalar-only evaluators (math.*) trip numpy's array-to-scalar
            # deprecation on size-1 input; treat that as "not vectorized"
            warnings.simplefilter("error", DeprecationWarning)
            out = np.asarray(fn(x))
        if out.shape != x.shape:
            raise TypeError("shape mismatch")
        return out
    except (TypeError, ValueError, DeprecationWarning):
        return np.asarray([fn(float(t)) for t in x])


def eval_symbol(sym: Symbol, x):
    """Pointwise value of the symbol at x >= 0 (scalar or array).

    Extended-precision float input is honored throughout structured
    symbols, which the quadrature engine uses for cancellation-critical
    integrals.
    """
    arr = np.asarray(x)
    if arr.dtype.kind != "f":
        arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
    if np.any(arr < 0.0):
        raise ValueError("x must be nonnegative")
    pts = np.atleast_1d(arr)
    if isinstance(sym, LaguerreCombo):
        p = sym.offset
        out = _eval_terms(sym, pts) + (p.real if p.imag == 0.0 else p)
    elif isinstance(sym, CallableSymbol):
        out = _eval_callable(sym.evaluator, pts)
    else:
        raise TypeError(f"not a symbol: {sym!r}")
    if arr.ndim == 0:
        return out[()] if out.ndim == 0 else out[0]
    return out


# ---------------------------------------------------------------------------
# Diagnostics

def _gaussian_reach(top_log: float, xi: int) -> float:
    # x beyond which exp(top_log - (xi-1) x^2) is below the double underflow floor
    return math.sqrt((top_log + 760.0) / (xi - 1))


def sup_estimate(sym: Symbol, n_grid: int = 4001) -> float:
    """Grid estimate of sup |sym| over [0, oo).

    A lower bound (up to grid resolution) used for diagnostics and for
    integration tail budgets: the grid sup of the terms plus |offset|.
    Callables report their declared bound.
    """
    if isinstance(sym, CallableSymbol):
        return float(sym.sup_bound)
    terms = 0.0
    if sym.coefficients:
        reach = _gaussian_reach(len(sym.coefficients) * math.log(sym.xi), sym.xi)
        grid = np.linspace(0.0, reach, n_grid)
        terms = float(np.max(np.abs(_eval_terms(sym, grid))))
    return terms + abs(sym.offset)


def describe_symbol(sym: Symbol) -> str:
    if isinstance(sym, CallableSymbol):
        return "callable"
    return f"combo(xi={sym.xi}, n_terms={len(sym.coefficients)}, offset={sym.offset})"


# ---------------------------------------------------------------------------
# JSON symbol schema

def symbol_from_json(obj) -> Symbol:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("symbol must be an object with a 'type'")
    kind = obj["type"]
    if kind == "constant":
        if "value" not in obj:
            raise ValueError("constant symbol needs a 'value'")
        return LaguerreCombo(offset=scalar_from_json(obj["value"]))
    if kind == "laguerre_basic":
        try:
            return basic_symbol(obj["m"], obj["xi"])
        except KeyError as exc:
            raise ValueError(f"laguerre_basic symbol needs {exc}") from None
    if kind == "combo":
        if "xi" not in obj or "coefficients" not in obj:
            raise ValueError("combo symbol needs 'xi' and 'coefficients'")
        coeffs = [scalar_from_json(c) for c in obj["coefficients"]]
        combo = combo_symbol(coeffs, obj["xi"])
        if "offset" in obj:
            return with_limit_offset(combo, scalar_from_json(obj["offset"]))
        return combo
    raise ValueError(f"unknown symbol type {kind!r}")


def symbol_to_json(sym: Symbol) -> dict:
    """The most specific schema entry: constant, laguerre_basic or combo."""
    if isinstance(sym, CallableSymbol):
        raise ValueError("callable symbols cannot be serialized")
    if not sym.coefficients:
        return {"type": "constant", "value": scalar_to_json(sym.offset)}
    m = len(sym.coefficients) - 1
    if not sym.offset and sym.coefficients == basic_symbol(m, sym.xi).coefficients:
        return {"type": "laguerre_basic", "m": m, "xi": sym.xi}
    out = {
        "type": "combo",
        "xi": sym.xi,
        "coefficients": [scalar_to_json(c) for c in sym.coefficients],
    }
    if sym.offset:
        out["offset"] = scalar_to_json(sym.offset)
    return out
