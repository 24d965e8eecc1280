"""Double-double arithmetic on numpy arrays: each number is an unevaluated sum hi + lo of two float64s.

The error-free transformations are Dekker's (Numer. Math. 18, 1971):
`two_sum` gives a + b exactly as a rounded sum and its rounding error, and
`two_prod` does the same for a * b by splitting each factor into two 26-bit
halves, since numpy has no fused multiply-add.  On them rest the
double-word sum, product and quotient in the forms analysed by Joldes,
Muller and Popescu (ACM TOMS 44, 2017), each to a few units of
u = 2^-106 while nothing leaves the normal range.  A value may be complex:
addition and subtraction are componentwise, and a product is error-free
componentwise when one factor is real, so `DD` refuses complex times complex.

`DD` is an array type for the adaptive quadrature: numpy's operators, `abs`
(in float64 magnitudes, all an error estimate needs), `np.exp` and `np.log`
(the vectorized double-double `exp` and `log`) dispatch to it, and `np.concatenate` accepts it.  Any other ufunc or
array function raises rather than rounding silently, comparisons included:
the quadrature keeps its panel edges in float64.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["DD", "LOG_BITS", "UNIT", "exp", "from_exact", "log", "log_fixed", "split", "to_dd", "two_prod", "two_sum"]

UNIT = 2.0**-106  # the unit roundoff u of double-double
_SPLITTER = 134217729.0  # 2^27 + 1: splits a float64 into two halves of 26 bits
LOG_BITS = 200  # fraction bits of `log_fixed`, far past the 106 that double-double holds


def two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth's branch-free form)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _fast_two_sum(a, b):
    """two_sum for |a| >= |b| or a = 0, componentwise."""
    s = a + b
    return s, b - (s - a)


def _split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly, for |a|, |b| below 2^996 and one factor real."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _as_dd(x) -> DD:
    return x if isinstance(x, DD) else DD(np.asarray(x, dtype=np.result_type(x, float)))


def _add(x, y) -> DD:
    x, y = _as_dd(x), _as_dd(y)
    s, e = two_sum(x.hi, y.hi)
    t, f = two_sum(x.lo, y.lo)
    s, e = _fast_two_sum(s, e + t)
    return DD(*_fast_two_sum(s, e + f))


def _mul(x, y) -> DD:
    x, y = _as_dd(x), _as_dd(y)
    if x.hi.dtype.kind == "c" and y.hi.dtype.kind == "c":
        raise TypeError("a complex times complex product is not error-free")
    p, e = two_prod(x.hi, y.hi)
    return DD(*_fast_two_sum(p, e + (x.hi * y.lo + x.lo * y.hi)))


def _div(x, y) -> DD:
    x, y = _as_dd(x), _as_dd(y)
    q = x.hi / y.hi
    r = _add(x, -_mul(y, q))
    return DD(*_fast_two_sum(q, (r.hi + r.lo) / y.hi))


def _matmul(x, y) -> DD:
    """(..., m) @ (m,): a product per term, then a pairwise sum."""
    return _mul(x, y).sum(axis=-1)


_UFUNCS = {
    np.add: _add,
    np.subtract: lambda x, y: _add(x, -_as_dd(y)),
    np.multiply: _mul,
    np.true_divide: _div,
    np.matmul: _matmul,
    np.negative: lambda x: DD(-x.hi, -x.lo),
    np.absolute: lambda x: np.abs(x.hi + x.lo),
    np.exp: lambda x: exp(x),  # defined below
    np.log: lambda x: log(x),
}


class DD(np.lib.mixins.NDArrayOperatorsMixin):
    """An array of double-double numbers hi + lo, |lo| <= ulp(hi) / 2; complex when hi is."""

    def __init__(self, hi, lo=None):
        self.hi = np.asarray(hi)
        self.lo = np.zeros_like(self.hi) if lo is None else np.asarray(lo)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs or ufunc not in _UFUNCS:
            return NotImplemented
        return _UFUNCS[ufunc](*inputs)

    def __array_function__(self, func, types, args, kwargs):
        if func is np.concatenate:
            parts = [_as_dd(part) for part in args[0]]
            hi, lo = ([getattr(p, half) for p in parts] for half in ("hi", "lo"))
            return DD(np.concatenate(hi, *args[1:], **kwargs), np.concatenate(lo, *args[1:], **kwargs))
        return NotImplemented

    def __array__(self, dtype=None, copy=None):
        """The values rounded to float64 (complex128 when complex)."""
        out = self.hi + self.lo
        return out if dtype is None else out.astype(dtype)

    def __getitem__(self, key) -> DD:
        return DD(self.hi[key], self.lo[key])

    def __setitem__(self, key, value) -> None:
        value = _as_dd(value)
        self.hi[key] = value.hi
        self.lo[key] = value.lo

    def __len__(self) -> int:
        return len(self.hi)

    @property
    def shape(self) -> tuple:
        return self.hi.shape

    def reshape(self, *shape) -> DD:
        return DD(self.hi.reshape(*shape), self.lo.reshape(*shape))

    def sum(self, axis: int) -> DD:
        """The sum along axis, pairwise: an error of at most about log2(length) * 3u of the absolute sum."""
        x = DD(np.moveaxis(self.hi, axis, -1), np.moveaxis(self.lo, axis, -1))
        while x.shape[-1] > 1:
            half = x.shape[-1] // 2
            pairs = x[..., :half] + x[..., half : 2 * half]
            x = np.concatenate([pairs, x[..., 2 * half :]], axis=-1)
        return x[..., 0]


def split(num: int, den: int = 1) -> tuple[float, float]:
    """num / den, for integers and den > 0, rounded twice: hi = float(v), lo = float(v - hi).

    Both halves are integer quotients, which Python rounds correctly, so hi
    alone is v correctly rounded and hi + lo is v to 2^-106 of it, at no
    working precision; num / den need not be in lowest terms.
    """
    hi = num / den
    h, d = hi.as_integer_ratio()
    return hi, (num * d - h * den) / (den * d)


def from_exact(ratios) -> DD:
    """Exact ratios (num, den) of integers as DD, each by `split`."""
    return DD(*np.array([split(*ratio) for ratio in ratios], dtype=float).reshape(-1, 2).T)


def to_dd(values) -> DD:
    """values as DD: a tuple of decimal strings, read exactly, or floats of any width.

    A float x becomes hi = float(x), lo = float(x - hi), which is exact for
    longdouble and float64.
    """
    if isinstance(values, tuple) and isinstance(values[0], str):
        return from_exact((int(v.replace(".", "")), 10 ** len(v.partition(".")[2])) for v in values)
    x = np.asarray(values)
    hi = x.astype(float)
    return DD(hi, (x - hi).astype(float))


def _atanh_fixed(p: int, q: int) -> int:
    """atanh(p / q) 2^LOG_BITS for 0 <= p / q <= 1/3, by its series; each term's truncation costs under 3 units."""
    power, total, k = (p << LOG_BITS) // q, 0, 1
    while power:
        total += power // k
        power = power * p * p // (q * q)
        k += 2
    return total


@functools.cache
def _log2_fixed() -> int:
    return 2 * _atanh_fixed(1, 3)


def log_fixed(z: int) -> int:
    """ln z 2^LOG_BITS for an integer z >= 1, to a few hundred units times log2 z.

    z = 2^e (1 + t) / (1 - t) with 2^e the power of two nearest z in ratio,
    so |t| <= 0.172 and ln z = e ln 2 + 2 atanh t, from the series in
    integers: each term takes 2.5 bits or more, with no working precision.
    """
    e = z.bit_length() - 1
    e += z * z >= 1 << (2 * e + 1)  # z / 2^e >= sqrt 2: the next power is nearer
    p, q = z - (1 << e), z + (1 << e)
    atanh = _atanh_fixed(abs(p), q)
    return e * _log2_fixed() + 2 * (atanh if p >= 0 else -atanh)


@functools.cache
def _exp_constants() -> DD:
    """ln 2, 1/3! and 1/4! as double-doubles, built once."""
    return from_exact([(_log2_fixed(), 1 << LOG_BITS), (1, 6), (1, 24)])


_EXP_HALVINGS = 10  # the reduced argument is divided by 2^10 and the result squared back 10 times
_EXP_FLOAT_TERMS = tuple(1.0 / math.factorial(k) for k in range(5, 10))  # terms below u of the sum


def exp(x) -> DD:
    """e^x of a real DD array, to a few units of u relative error plus |x| u from x's own rounding.

    x = k ln 2 + s with |s| <= ln 2 / 2; e^(s / 2^10) - 1 is a 9-term Taylor
    sum, whose terms past the fourth lie below u of it and are summed in
    float64; 10 squarings in the form p -> 2p + p^2 of p = e^s - 1 keep its
    relative error from doubling at each step; then e^x = (1 + p) 2^k.
    Arguments below about -745 give 0, above about 709.8 inf, and results
    below 2^-969 lose relative precision in lo as subnormal roundoff.
    """
    x = _as_dd(x)
    ln2, c3, c4 = _exp_constants()
    # past +-760 the result is 0 or inf whatever the argument; clipping keeps the reduction small
    clipped = np.abs(x.hi) > 760.0
    x = DD(np.clip(x.hi, -760.0, 760.0), np.where(clipped, 0.0, x.lo))
    k = np.round(x.hi / ln2.hi)
    s = (x - k * ln2) * 2.0**-_EXP_HALVINGS
    tail = s.hi * 0.0
    for c in reversed(_EXP_FLOAT_TERMS):
        tail = (tail + c) * s.hi
    p = s * (1.0 + s * (0.5 + s * (c3 + s * (c4 + tail))))
    for _ in range(_EXP_HALVINGS):
        p = p * (p + 2.0)
    out, k = p + 1.0, k.astype(int)
    return DD(np.ldexp(out.hi, k), np.ldexp(out.lo, k))


def log(x) -> DD:
    """ln x of a positive real DD array, to a few units of u absolute error.

    One Newton step from y = np.log(hi): ln x = y + ln(1 + d) with
    d = x e^-y - 1, about 1e-16 or less; the step's d^2 / 2 term, taken in
    float64, keeps its error d^3 / 3 far below u where |y| is large.
    """
    x = _as_dd(x)
    y = np.log(x.hi)
    d = x * exp(-y) - 1.0
    return (d - 0.5 * d.hi * d.hi) + y
