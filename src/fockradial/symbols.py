"""Radial defining symbols on [0, oo).

The central family is the Laguerre-Gaussian symbol of degree m and integer
scale xi >= 2,

    basic(m, xi)(x) = (-1)^m xi^(m+1) exp(-(xi - 1) x^2) L_m(xi x^2).

Every structured symbol is one `LaguerreCombo`: a finite combination
sum_k c_k basic(k, xi) sharing one scale, plus a constant offset p.  A
constant has no terms, and basic(m, xi) has one-hot coefficients.  Black-box
functions are `CallableSymbol`s.  A structured symbol has one scaled form,
`_scaled_combo`, read by `eval_symbol`, `sup_estimate` and the quadrature:
exact factors c_k (-1)^k xi^(k+1) 2^-scale and the package's one Laguerre
recurrence (`fockradial.laguerre._laguerre_rows`) started from the Gaussian
factor, so large m and xi neither overflow the power nor lose the
underflowing Gaussian prematurely.

Averaging a symbol j times shifts its eigenvalue sequence left by j; the j
exponential averages compose into one expectation E[g(sqrt(r + G))] with G
Gamma(j, 1)-distributed, which `fockradial.eigenvalues` evaluates through
`eval_symbol`.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
import warnings
from dataclasses import dataclass, replace
from numbers import Real
from typing import Callable, Union

import numpy as np

from . import doubledouble as _dd
from .laguerre import _check_index, _finite_arg, _into, _laguerre_rows
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
    if xi > sys.float_info.max:
        raise ValueError("scale xi is past the float range")
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


@dataclass(frozen=True)
class CallableSymbol:
    """A user-supplied bounded evaluator x -> value.

    `sup_bound` is declared by the caller and used only for diagnostics and
    integration tail budgets.  It is checked for form (a real >= 0, inf
    allowed, not a bool), not for truth: nothing checks the evaluator's values.
    """

    evaluator: Callable
    sup_bound: float = 1.0

    def __post_init__(self):
        if isinstance(self.sup_bound, bool) or not isinstance(self.sup_bound, Real) or not self.sup_bound >= 0:
            raise ValueError(f"sup_bound must be a real >= 0, got {self.sup_bound!r}")
        object.__setattr__(self, "sup_bound", float(self.sup_bound))


Symbol = Union[LaguerreCombo, CallableSymbol]


_MAX_DEGREE = 10**6  # basic(m, xi) stores m + 1 coefficients, 40 MB at this cap


def basic_symbol(m: int, xi: int) -> LaguerreCombo:
    """The degree-m, scale-xi Laguerre-Gaussian symbol, for m up to _MAX_DEGREE."""
    m = _check_index(m)
    if m > _MAX_DEGREE:
        raise ValueError(f"degree m must be at most {_MAX_DEGREE}")
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

_to_float64 = functools.partial(np.asarray, dtype=float)  # one converter per type: `_scaled_combo`'s cache key
_to_longdouble = functools.partial(np.asarray, dtype=np.longdouble)
_LAG_START = 600.0  # the largest exponent the recurrence starts from: e^-600 and its lo half stay normal


_MODULUS_BITS = 141  # a complex modulus in sup is rounded up to a relative 2^-141


def _numerator(x: float, den: int) -> int:
    """x times den, exact, for a power of two den that x's own denominator divides."""
    num, own = x.as_integer_ratio()
    return num * (den // own)


def _modulus_bound(re: int, im: int) -> int:
    """ceil(|re + i im| 2^_MODULUS_BITS), by an integer square root where both parts are nonzero."""
    if not re or not im:
        return (abs(re) + abs(im)) << _MODULUS_BITS
    square = (re * re + im * im) << 2 * _MODULUS_BITS
    root = math.isqrt(square)
    return root + (root * root < square)


@functools.lru_cache(maxsize=64)
def _scaled_factors(sym: LaguerreCombo) -> tuple[int, _dd.DD, _dd.DD, float]:
    """(scale, real and imaginary parts of c_k (-1)^k xi^(k+1) 2^-scale as double-doubles, sup), exactly.

    Every part of every c_k and of the offset is an integer over den, the
    largest of their power-of-two denominators, so each factor is an exact
    integer ratio before its two roundings (`_dd.split`).  sup is the
    least float >= sum_k |c_k| xi^(k+1) + |offset|, with a complex modulus
    rounded up (`_modulus_bound`), inf past the float range; scale, that
    bound's exponent floor(log2) or 0 if less, stays finite there.
    Cached: every evaluation and every pass of every block asks.
    """
    den = max(x.as_integer_ratio()[1] for z in (*sym.coefficients, sym.offset) for x in (z.real, z.imag))
    terms, power = [], sym.xi
    for c in sym.coefficients:
        terms.append((_numerator(c.real, den) * power, _numerator(c.imag, den) * power))
        power *= -sym.xi
    offset = (_numerator(sym.offset.real, den), _numerator(sym.offset.imag, den))
    total = sum(_modulus_bound(*part) for part in (*terms, offset))
    unit = den << _MODULUS_BITS  # a power of two: total / unit bounds the sum
    scale = max(0, total.bit_length() - unit.bit_length()) if total else 0
    re, im = (_dd.from_exact((term[part], den << scale) for term in terms) for part in (0, 1))
    try:
        sup = total / unit
    except OverflowError:  # the quotient rounds past the largest float
        return scale, re, im, math.inf
    h, d = sup.as_integer_ratio()  # sup = h / d exactly
    return scale, re, im, math.nextafter(sup, math.inf) if h * unit < total * d else sup


def _in_type(pair: _dd.DD, convert):
    """A real double-double in convert's number type as hi + lo, each half converted, so longdouble keeps lo."""
    return convert(pair.hi) + convert(pair.lo)


def _ldexp(x, k: int):
    """x times 2^k in place, exact in the normal range; part by part, since numpy has no complex ldexp."""
    if isinstance(x, _dd.DD):
        return _dd.DD(_ldexp(x.hi, k), _ldexp(x.lo, k))
    for part in (x.real, x.imag) if x.dtype.kind == "c" else (x,):
        np.ldexp(part, k, out=part)
    return x


@functools.lru_cache(maxsize=64)
def _scaled_combo(sym: LaguerreCombo, convert):
    """(scale, r -> 2^-scale g(sqrt(r))) for arrays r >= 0 in convert's number type; a constant gives a scalar.

    The one evaluation of a structured symbol: the Laguerre recurrence
    (`fockradial.laguerre._laguerre_rows`) started from e^-c, with
    c = min((xi - 1) r, 600) a float64 array (exact in every type, and the
    first row stays normal), so that row k is l_k = L_k(xi r) e^-c, summed
    against the factors and times e^(c - (xi - 1) r); |L_k(t)| <= e^(t/2)
    and xi >= 2 keep each term within 1, and the factors
    (`_scaled_factors`) and offset, which carry 2^-scale, the sum within 2.
    A double-double product is complex times real.  An overflow is not finite.
    In float64 and longdouble the sum cycles through two arrays of r's shape,
    updated in place (`_into`) as the recurrence's rows are; a double-double
    computes out of place.  Cached: every pass of every quadrature asks.
    """
    scale, re, im, _ = _scaled_factors(sym)
    factors = _in_type(re, convert) + 1j * _in_type(im, convert) if im.hi.any() else _in_type(re, convert)
    offset = complex(math.ldexp(sym.offset.real, -scale), math.ldexp(sym.offset.imag, -scale))
    offset = offset.real if offset.imag == 0.0 else offset
    live = [k for k, c in enumerate(sym.coefficients) if c]

    def values(r):
        if not live:
            return offset
        decay = r * (sym.xi - 1.0)
        c = np.minimum(np.asarray(decay, dtype=float), _LAG_START)
        terms = spare = 0.0
        for k, lag in enumerate(_laguerre_rows(live[-1], r * float(sym.xi), np.exp(-convert(c)))):
            if sym.coefficients[k]:
                product = _into(spare, np.multiply, factors[k], lag)
                terms, spare = _into(product, np.add, product, terms), terms
        gauss = _into(decay, np.subtract, c, decay)
        terms = _into(terms, np.multiply, terms, _into(gauss, np.exp, gauss))
        return _into(terms, np.add, offset, terms)

    return scale, values


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
    """Pointwise value of the symbol at x >= 0 (scalar or array); a callable gets x unchanged.

    A structured symbol converts x to longdouble if it is longdouble, else to float64, so float32
    evaluates in float64; it runs its scaled form (`_scaled_combo`) in that type, multiplies by
    2^scale (`_ldexp`) and returns that type (complex for complex coefficients).  The value is not
    finite, without a warning, where the recurrence or the value overflows.
    """
    pts = _finite_arg(x)
    if (pts < 0.0).any():
        raise ValueError("x must be nonnegative")
    if isinstance(sym, LaguerreCombo):
        convert = _to_longdouble if pts.dtype == np.longdouble else _to_float64
        (scale, values), pts = _scaled_combo(sym, convert), convert(pts)
        with np.errstate(over="ignore", invalid="ignore"):
            out = _ldexp(values(pts * pts) + np.zeros_like(pts), scale)
    elif isinstance(sym, CallableSymbol):
        out = _eval_callable(sym.evaluator, pts)
    else:
        raise TypeError(f"not a symbol: {sym!r}")
    return out[0] if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# Diagnostics

def sup_estimate(sym: Symbol) -> float:
    """An upper bound of sup |sym| over [0, oo), for diagnostics and tail budgets.

    A structured symbol gets sum_k |c_k| xi^(k+1) + |offset|: |L_k(t)| <= e^(t/2) and
    xi >= 2 give |basic(k, xi)(x)| <= xi^(k+1) e^(-(xi/2 - 1) x^2), exact at x = 0.
    Summed exactly and rounded up; inf past the float range.  Callables
    report their declared bound.
    """
    if isinstance(sym, CallableSymbol):
        return sym.sup_bound
    return _scaled_factors(sym)[3]


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
