"""Laguerre polynomials: stable float evaluation by the three-term recurrence.

The degree-m Laguerre polynomial has the explicit form

    L_m(x) = sum_{k=0}^{m} (-1)^k binom(m, k) x^k / k!

and satisfies the three-term recurrence

    (k + 1) L_{k+1}(x) = (2k + 1 - x) L_k(x) - k L_{k-1}(x),
    L_0(x) = 1,  L_1(x) = 1 - x.

Floating-point evaluation goes through the recurrence, which stays well
behaved on [0, oo); the explicit sum cancels catastrophically for large
arguments.  `_laguerre_rows` is the package's only recurrence: the
evaluators here start it from ones, every structured symbol
(`fockradial.symbols`) from its Gaussian factor.  This is the bottom layer;
`_into`, the in-place update of the recurrence's rows, also serves the
quadrature.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

__all__ = ["laguerre_eval", "laguerre_eval_all"]


def _check_index(m, name: str = "m") -> int:
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {m!r}")
    if m < 0:
        raise ValueError(f"{name} must be nonnegative, got {m}")
    return int(m)


def _check_positive(value, name: str) -> float:
    """value as a float; it must be a finite, positive real and not a bool."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < math.inf:
        raise ValueError(f"{name} must be a finite positive real, got {value!r}")
    return float(value)


def _into(out, ufunc, *args):
    """ufunc(*args), written into out when out is a numpy array of the result's type, else a new result.

    Each large array of the recurrence and the quadrature is made once and
    updated this way, by the same operations in the same order, so the bits
    do not change.  A double-double (`fockradial.doubledouble.DD`) is no
    numpy array, so it is computed out of place, and so is a result of a
    wider type than out, such as a complex product.
    """
    if isinstance(out, np.ndarray) and np.result_type(*args) == out.dtype:
        return ufunc(*args, out=out)
    return ufunc(*args)


def _laguerre_rows(m: int, t, first):
    """Yield first * L_k(t) for k = 0..m by the recurrence, in the number type of t and first.

    The package's one Laguerre recurrence: `laguerre_eval` and
    `laguerre_eval_all` start it from ones, the structured symbols
    (`fockradial.symbols._scaled_combo`) from their Gaussian factor.  The
    rows cycle through three arrays, first among them, each step updated in
    place (`_into`; a temporary row per step page-faults large rows anew),
    so a yielded row is overwritten two steps later; a double-double
    computes out of place.
    """
    prev, row, spare = None, first, None
    yield row
    for k in range(1, m + 1):
        # l_k = ((2k - 1 - t) l_(k-1) - (k - 1) l_(k-2)) / k, written over l_(k-3); l_1 has no l_(-1) term
        step = _into(spare, np.subtract, 2 * k - 1, t)
        step = _into(step, np.multiply, step, row)
        if k > 1:
            step = _into(step, np.subtract, step, _into(prev, np.multiply, k - 1, prev))
        prev, row, spare = row, _into(step, np.true_divide, step, k), prev
        yield row


def _finite_arg(x) -> np.ndarray:
    # at least one dimension; a float array keeps its type (float32, longdouble), anything else becomes float64
    arr = np.atleast_1d(x)
    if arr.dtype.kind != "f":
        arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise ValueError("x must be finite")
    return arr


def laguerre_eval(m: int, x):
    """Evaluate L_m at x (scalar or array), keeping three rows of the recurrence.

    The float dtype of `x` is preserved, so extended-precision input yields
    extended-precision output; a scalar `x` gives a float.
    """
    m, arr = _check_index(m), _finite_arg(x)
    for row in _laguerre_rows(m, arr, np.ones_like(arr)):
        pass
    return float(row[0]) if np.ndim(x) == 0 else row


def laguerre_eval_all(m_max: int, x) -> np.ndarray:
    """Evaluate L_0, ..., L_{m_max} at x in one recurrence sweep.

    Returns an array of shape (m_max + 1,) + shape(atleast_1d(x)).
    """
    m_max = _check_index(m_max, "m_max")
    arr = _finite_arg(x)
    out = np.empty((m_max + 1,) + arr.shape, dtype=arr.dtype)
    for k, row in enumerate(_laguerre_rows(m_max, arr, np.ones_like(arr))):
        out[k] = row
    return out
