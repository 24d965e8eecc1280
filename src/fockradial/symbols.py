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

import cmath
import functools
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

from .laguerre import _as_float_array, _check_index, laguerre_eval_all
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
        if not all(map(cmath.isfinite, (*self.coefficients, self.offset))):
            raise ValueError("symbol coefficients and offset must be finite")

    @functools.cached_property
    def _terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(k, (-1)^k c_k) for the nonzero coefficients, real when all are; evaluation reuses them."""
        coeffs = np.asarray(self.coefficients, dtype=complex)
        rows = np.flatnonzero(coeffs)
        weights = coeffs[rows]
        if not weights.imag.any():
            weights = weights.real
        return rows, weights * np.where(rows % 2, -1.0, 1.0)

    @functools.cached_property
    def _sup_bound(self) -> float:
        """`sup_estimate` of this symbol, computed once: the quadrature asks for it at every index."""
        magnitudes = np.abs(np.asarray(self.coefficients, dtype=complex))
        rows = np.flatnonzero(magnitudes)
        with np.errstate(over="ignore"):
            terms = np.exp(np.log(magnitudes[rows]) + (rows + 1) * np.log(np.float64(self.xi)))
        return float(terms.sum()) + abs(self.offset)


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
    arithmetic real.  A point where the recurrence overflowed (a peak of inf
    or nan) gives nan, without a warning; one where every term is 0 gives 0.
    """
    rows, weights = sym._terms
    if not rows.size:
        return np.zeros_like(x)
    xi = sym.xi
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lag = laguerre_eval_all(int(rows[-1]), xi * x * x)[rows]
        log_terms = (rows + 1)[:, None] * np.log(x.dtype.type(xi)) + np.log(np.abs(lag))
        peak = np.max(log_terms, axis=0)
        peak_ok = np.isfinite(peak)
        safe_peak = np.where(peak_ok, peak, 0.0)
        mix = weights @ np.copysign(np.exp(log_terms - safe_peak), lag)
        value = mix * np.exp(safe_peak - (xi - 1) * x * x)
    return np.where(peak_ok, value, np.where(peak == -np.inf, 0.0, np.nan))


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
    """Pointwise value of the symbol at x >= 0 (scalar or array), in x's float type.

    A structured symbol's value is nan where its float Laguerre recurrence
    overflows; the quadrature integrates structured symbols by its own
    scaled recurrence instead.
    """
    arr = _as_float_array(x)
    if not np.isfinite(arr).all():
        raise ValueError("x must be finite")
    if (arr < 0.0).any():
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

def sup_estimate(sym: Symbol) -> float:
    """An upper bound of sup |sym| over [0, oo), for diagnostics and tail budgets.

    A structured symbol gets sum_k |c_k| xi^(k+1) + |offset|: |L_k(t)| <= e^(t/2) and
    xi >= 2 give |basic(k, xi)(x)| <= xi^(k+1) e^(-(xi/2 - 1) x^2), exact at x = 0.
    Past the float range the bound is inf.  Callables report their declared bound.
    """
    if isinstance(sym, CallableSymbol):
        return float(sym.sup_bound)
    return sym._sup_bound


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
        if "xi" not in obj or not isinstance(obj.get("coefficients"), list):
            raise ValueError("combo symbol needs 'xi' and a 'coefficients' list")
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
