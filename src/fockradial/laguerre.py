"""Laguerre polynomials: stable float evaluation by the three-term recurrence.

The degree-m Laguerre polynomial has the explicit form

    L_m(x) = sum_{k=0}^{m} (-1)^k binom(m, k) x^k / k!

and satisfies the three-term recurrence

    (k + 1) L_{k+1}(x) = (2k + 1 - x) L_k(x) - k L_{k-1}(x),
    L_0(x) = 1,  L_1(x) = 1 - x.

Floating-point evaluation goes through the recurrence, which stays well
behaved on [0, oo); the explicit sum cancels catastrophically for large
arguments.
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


def _as_float_array(x) -> np.ndarray:
    # keep extended-precision floats as they are; everything else becomes float64
    arr = np.asarray(x)
    if arr.dtype.kind != "f":
        arr = arr.astype(float)
    return arr


def _laguerre_rows(m: int, t):
    """Yield L_0(t), ..., L_m(t) by the recurrence in t's number type, keeping two rows alive.

    It serves `laguerre_eval` and `laguerre_eval_all`; structured symbols
    run their own scaled recurrence, `fockradial.symbols._scaled_combo`.
    Steps work in place (a temporary row per step page-faults large rows
    anew), so a yielded row is overwritten two steps later.
    """
    prev, row = None, np.ones_like(t)
    yield row
    for k in range(m):
        new = 2 * k + 1 - t
        if k:
            new *= row
            prev *= k
            new -= prev
            new /= k + 1
        prev, row = row, new
        yield row


def _finite_arg(x) -> np.ndarray:
    arr = np.atleast_1d(_as_float_array(x))
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
    return arr


def laguerre_eval(m: int, x):
    """Evaluate L_m at x (scalar or array), keeping two rows of the recurrence.

    The float dtype of `x` is preserved, so extended-precision input yields
    extended-precision output; a scalar `x` gives a float.
    """
    for row in _laguerre_rows(_check_index(m), _finite_arg(x)):
        pass
    return float(row[0]) if np.ndim(x) == 0 else row


def laguerre_eval_all(m_max: int, x) -> np.ndarray:
    """Evaluate L_0, ..., L_{m_max} at x in one recurrence sweep.

    Returns an array of shape (m_max + 1,) + shape(atleast_1d(x)).
    """
    m_max = _check_index(m_max, "m_max")
    arr = _finite_arg(x)
    out = np.empty((m_max + 1,) + arr.shape, dtype=arr.dtype)
    for k, row in enumerate(_laguerre_rows(m_max, arr)):
        out[k] = row
    return out
