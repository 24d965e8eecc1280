"""Eigenvalue sequences of radial Toeplitz operators on the Fock space.

For a bounded radial symbol g the operator is diagonal on the normalized
monomial basis, with eigenvalues

    gamma_g(n) = (1 / n!) * integral_0^oo g(sqrt(r)) e^{-r} r^n dr.

Structured symbols admit a closed form: the Laguerre-Gaussian symbol of
degree m and scale xi gives a_m(n) = binom(n, m) xi^{-(n-m)} (0 for n < m),
and gamma is linear in the symbol with gamma(constant c) = c.  Whole
sequences of a combination sum_k c_k basic(k, xi) + p come from one float
engine, `closed_form_sequence`: it carries the vector a(n) = (a_k(n))_k
through the Pascal recurrence a_k(n+1) = a_k(n) / xi + a_{k-1}(n), starting
from a(0) = e_0, into a block of rows, and takes one dot product with the
coefficients per n, a block at a time.  That is O(N) float work per index,
O(N * n_max) for the sequence in O(N) memory per row of the block, with
every term nonnegative, so nothing cancels and each a_k(n) carries a
relative error of at most about 2n roundings.
Everything else goes through quadrature against the normalized weight
w_n(r) = exp(n ln r - r - ln n!), a probability density peaked at
r = n with width sqrt(n + 1).  The quadrature window is centered on the
peak and reaches (`_windows`) to where a proven upper bound of the weight
mass outside it (`_tail_bound`: Robbins' bound of n! times a geometric
majorant of the Poisson sum) times the symbol bound sup|g| is below
rel_tol / 10; that product, a bound and not an estimate, is folded into the
reported error estimate.  The window is
refined adaptively with a Gauss-Kronrod 7/15 rule.  Every decision tests
tau(v) = rel_tol * max(1, |v|).  In x = sqrt(r) every weight w_n has nearly
the same width, about 1/2 (the sqrt-distance of the paper), and a structured
symbol's Gaussian factor exp(-(xi - 1) r) makes each of its terms a weight of
the same shape in y = sqrt(xi r).  So the indices of any sequence share one
panel grid, uniform in x and, where the terms carry mass, in y: one adaptive
loop integrates a block of weights against one set of panels, each index
counting only the panels that meet its own window.  Each block runs one
loop over an ordered list of precision passes (`_passes`): float64, then,
for a structured symbol, longdouble and double-double (numpy pairs hi + lo
of float64s, `fockradial.doubledouble`, about 32 digits on every platform).
Every pass runs one integrand (`_integrand`): the weight times the symbol's
scaled form 2^-scale g (`fockradial.symbols._scaled_combo`; scale 0 for a
callable), with 2^scale put back into each panel sum.  A pass reruns the
adaptive loop for the indices that missed the last pass's target with their
panels settled, to tau / 10, its error floored at its type's roundoff; an
index leaves at the first pass that meets it.  Callables stay in float64.

Each eigenvalue comes back as one `Eigenvalue` record: its value, the engine
that produced it ("closed" or "quad"), the tier (the closed form or the pass
whose value it holds) and, for quadrature, the error estimate, the
`converged` flag and the number of subdivisions.  `EigenSeq` holds one
record per index.

The module ends with the shift identity.  One exponential average
integrates g(sqrt(u)) against the unit-mass kernel e^{r-u} on [r, oo).  A sum
of j independent unit exponentials is Gamma(j, 1)-distributed, so j averages
compose into the single integral

    A_j g(r) = E[g(sqrt(r + G))] = integral_0^oo g(sqrt(r + s)) s^{j-1} e^{-s} / (j-1)! ds,

which `_averaging_rule` discretizes by the Gauss-Kronrod rule on panels
that start at 1.5 times the symbol's decay length 1/xi and widen
geometrically, within the window of w_{j-1}, the Gamma(j, 1) density, and
`_average` applies.  Averaging j times realizes the j-fold left shift of
gamma_g at the symbol level, which `shifted_gamma_residual` checks
numerically.  The rule's own error, sup|g| times the Gamma(j, 1) mass
outside that window plus sup|g| times its weights' miss of unit mass, goes
into the estimate of every averaged record.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import lgamma
from typing import Callable, NamedTuple

import numpy as np

from . import doubledouble as _dd
from .laguerre import _check_index, _check_positive, _into
from .symbols import (
    CallableSymbol,
    LaguerreCombo,
    Symbol,
    _check_scale,
    _in_type,
    _ldexp,
    _scaled_combo,
    _scaled_factors,
    _to_float64,
    _to_longdouble,
    describe_symbol,
    eval_symbol,
    sup_estimate,
)

__all__ = [
    "ClosedSequence",
    "EigenSeq",
    "Eigenvalue",
    "QuadConfig",
    "closed_form_sequence",
    "gamma_quadrature",
    "gamma_sequence",
    "has_closed_form",
    "shifted_gamma_residual",
]


# ---------------------------------------------------------------------------
# Closed forms

class ClosedSequence(NamedTuple):
    """gamma(0..n_max) of a combination, and the term vector one step further."""

    values: np.ndarray  # complex, length n_max + 1
    next_terms: np.ndarray  # a_k(n_max + 1) for k < N


_CLOSED_BLOCK = 256  # indices per block of rows a(n); bounds the (block x N) array


def closed_form_sequence(coeffs, xi: int, p, n_max: int) -> ClosedSequence:
    """gamma(0..n_max) of sum_k coeffs[k] * basic(k, xi) plus the constant p.

    Steps a(n) = (binom(n, k) xi^-(n-k))_k through the Pascal recurrence
    a_k(n+1) = a_k(n) / xi + a_{k-1}(n) from a(0) = e_0 into the rows of a
    block of _CLOSED_BLOCK indices, two ufunc calls per n on row views made
    once, then takes the block's dot products with the coefficients in one
    stacked matmul: a (1 x N) @ (N x 1) per row, the same dot routine and
    the same bits as one vector dot per n.  O(N * n_max) float work and
    O(N * _CLOSED_BLOCK) memory.  gamma(n) is within
    (2n + N + 1) * 2^-53 * (sum_k |coeffs[k]| a_k(n) + |p|) of the exact
    value, up to subnormal roundoff once terms underflow.  The value at n
    does not depend on n_max, so every caller gets the same bits for it.
    A sum past the float range is not finite, without a warning (the blocks
    run under `np.errstate`), as in `eval_symbol`.  `next_terms` is
    a(n_max + 1), the start of the sequence's tail.
    """
    xi = _check_scale(xi)
    n_max = _check_index(n_max, "n_max")
    coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
    p = complex(p)
    parts = [np.ascontiguousarray(coeffs.real)[:, None]]
    if coeffs.imag.any():
        parts.append(np.ascontiguousarray(coeffs.imag)[:, None])
    rows = np.zeros((min(n_max + 1, _CLOSED_BLOCK) + 1, len(coeffs)))
    if len(coeffs):
        rows[0, 0] = 1.0
    steps = list(zip(rows, rows[1:], rows[1:, 1:], rows[:-1, :-1]))
    scale, divide, add = np.float64(xi), np.divide, np.add  # a float64 xi rounds as the int does, once
    sums = [np.zeros(n_max + 1) for _ in range(2)]
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_max + 1, len(steps)):
            count = min(len(steps), n_max + 1 - start)
            for term, after, tail, head in steps[:count]:
                divide(term, scale, out=after)
                add(tail, head, out=tail)
            for part, out in zip(parts, sums):
                # a stack of (1 x N) @ (N x 1) runs numpy's vector dot per row; gemv on the 2-D block rounds otherwise
                out[start : start + count] = np.matmul(rows[:count, None, :], part)[:, 0, 0]
            rows[0] = rows[count]
    values = np.empty(n_max + 1, dtype=complex)
    values.real = sums[0] + p.real
    values.imag = sums[1] + p.imag
    return ClosedSequence(values, rows[0].copy())


def has_closed_form(sym: Symbol) -> bool:
    return isinstance(sym, LaguerreCombo)


# The two single-index reads below stay only because the benchmark's span
# table (perfbench/tracing.py, TRACED and CLOSED) binds them by name.

def gamma_combo_closed_form(coeffs, xi: int, p, n: int) -> complex:
    """gamma(n) of sum_k coeffs[k] * basic(k, xi) plus the constant p."""
    return closed_form_sequence(coeffs, xi, p, n).values[n]


def gamma_for_symbol_closed(sym: Symbol, n: int) -> complex:
    """Closed-form eigenvalue for structured symbols."""
    if not has_closed_form(sym):
        raise ValueError(f"no closed form for {describe_symbol(sym)}")
    return gamma_combo_closed_form(sym.coefficients, sym.xi, sym.offset, n)


# ---------------------------------------------------------------------------
# Eigenvalue records and the quadrature configuration

@dataclass(frozen=True)
class QuadConfig:
    """Tolerance tau(v) = rel_tol * max(1, |v|) for each eigenvalue v; a cap on adaptive splits."""

    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        _check_positive(self.rel_tol, "rel_tol")
        _check_index(self.max_subdivisions, "max_subdivisions")

    def tolerance(self, value):
        """tau(value) = rel_tol * max(1, |value|), the one tolerance of the quadrature; elementwise on arrays."""
        return self.rel_tol * np.maximum(1.0, np.abs(value).astype(float))


@dataclass(frozen=True)
class Eigenvalue:
    """One eigenvalue gamma(n) and how it was produced.

    engine is "closed" (the float closed form: est_abs_err None, converged
    True, no subdivisions) or "quad" (`gamma_quadrature`: est_abs_err bounds
    |value - gamma(n)|, converged says the value met its tolerance).  tier
    names the arithmetic that produced the value: "closed" for the closed
    form, else the pass whose value the record holds, "float64",
    "longdouble" or "double-double".
    """

    value: complex
    engine: str
    est_abs_err: float | None = None
    converged: bool = True
    subdivisions: int = 0
    tier: str = "closed"


@dataclass(frozen=True)
class EigenSeq:
    """gamma(0..n_max), one `Eigenvalue` record per index."""

    entries: list[Eigenvalue]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def values(self) -> list[complex]:
        return [entry.value for entry in self.entries]

    @property
    def converged(self) -> bool:
        return all(entry.converged for entry in self.entries)


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 panel rule (QUADPACK dqk15 constants, 33 digits) in any number type

_XGK_POS = (
    "0.991455371120812639206854697526329",
    "0.949107912342758524526189684047851",
    "0.864864423359769072789712788640926",
    "0.741531185599394439863864773280788",
    "0.586087235467691130294144838258730",
    "0.405845151377397166906606412076961",
    "0.207784955007898467600689403773245",
)
_WGK_POS = (
    "0.022935322010529224963732008058970",
    "0.063092092629978553290700663189204",
    "0.104790010322250183839876322541518",
    "0.140653259715525918745189590510238",
    "0.169004726639267902826583426598550",
    "0.190350578064785409913256402421014",
    "0.204432940075298892414161999234649",
    "0.209482141084727828012999174891714",
)
_WG_POS = (
    "0.129484966168869693270611432679082",
    "0.279705391489276667901467771423780",
    "0.381830050505118944950369775488975",
    "0.417959183673469387755102040816327",
)

_to_double_double = _dd.to_dd


@functools.cache
def _gk15_rule(convert):
    """(Kronrod nodes, Kronrod weights, Gauss-7 weights) on [-1, 1], in convert's number type, read-only.

    Each number is converted straight from its string, so a double-double
    rule splits the 33 digits into hi + lo, read exactly (`_dd.to_dd`).
    Gauss-7 uses the odd Kronrod nodes.  Every pass and the averaging rule share the cached arrays.
    """
    nodes = tuple("-" + x for x in _XGK_POS) + ("0",) + _XGK_POS[::-1]
    wgk, wg7 = _WGK_POS + _WGK_POS[-2::-1], _WG_POS + _WG_POS[-2::-1]
    rule = convert(nodes), convert(wgk), convert(wg7)
    for part in rule:
        for array in (part.hi, part.lo) if isinstance(part, _dd.DD) else (part,):
            array.flags.writeable = False
    return rule


_ERR_FLOOR = 1.1e-14  # ~50 ulp of the panel's absolute integral
_EPS = float(np.finfo(float).eps)


def _gk15_batch(f, convert, a: np.ndarray, b: np.ndarray, floor):
    """Gauss-Kronrod 7/15 on a batch of float64 panels [a, b], exactly converted into convert's number type.

    f maps the (panels, 15) node array to the integrand of every index at
    once, one leading row per index, in a single call.  Returns (values,
    error estimates, absolute integrals), each of shape (indices, panels):
    the values in the pass's number type, the estimates built from
    magnitudes, which are float64 in a double-double pass.  No estimate is
    below the index's floor, a column, times the panel's absolute integral.
    In float64 and longdouble the only array of f's shape made here is one
    magnitude buffer: |f| goes into it, then f - mean into f's own array,
    which f must not keep, and |f - mean| into the buffer.  A double-double
    pass computes f - mean and its magnitude out of place.
    """
    xgk, wgk, wg7 = _gk15_rule(convert)
    a, b = convert(a), convert(b)
    width = b - a
    half = 0.5 * width
    center = 0.5 * (a + b)
    nodes = center[:, None] + half[:, None] * xgk[None, :]
    fx = f(nodes).reshape(-1, *nodes.shape)  # (indices, panels, nodes)
    resk = half * (fx @ wgk)
    resg = half * (fx[..., 1::2] @ wg7)
    mean = (resk / width)[..., None]
    # the rest of the estimate is built from magnitudes, which abs gives in float64 for a double-double pass
    abs_half, abs_wgk = np.abs(half), np.abs(wgk)
    magnitude = np.abs(fx)
    resabs = abs_half * (magnitude @ abs_wgk)
    if isinstance(fx, np.ndarray):
        np.absolute(np.subtract(fx, mean, out=fx), out=magnitude)
    else:
        magnitude = np.abs(fx - mean)
    resasc = abs_half * (magnitude @ abs_wgk)
    diff = np.abs(resk - resg)
    spread = resasc > 0.0
    safe = np.where(spread, resasc, 1.0)
    err = np.where(spread, resasc * np.minimum(1.0, (200.0 * diff / safe) ** 1.5), diff)
    return resk, np.maximum(err, floor * resabs), resabs


def _adaptive_gk(f, convert, scale: int, a, b, cfg: QuadConfig, floor, reach, windows, splits):
    """Globally adaptive bisection of the panels [a, b] for many indices at once.

    The panels are float64 whatever the pass; only `_gk15_batch` works in
    convert's number type.  f gives 2^-scale times the integrand of every
    index at once; each panel's sums are multiplied by 2^scale (`_ldexp`),
    exactly in the normal range, so every test sees the integrand's; floor
    (a column), reach, the windows = (lo, hi) and splits have one entry per
    index.  An index counts only the panels that meet its own [lo, hi].  Until
    an index's summed error is within tau(its total), each round splits every
    panel whose error exceeds that index's share of tau, skipping panels
    already at the index's roundoff floor (splitting cannot improve those); a
    panel one index flags is split for all.  An index flags nothing once reach,
    the floor of the finest pass there is, times its absolute integral exceeds
    tau: no pass can then meet it.  Each index adds the splits it flags to its
    splits of earlier passes, against the one budget, and is not `settled`,
    and flags nothing more, if the budget ran out while a panel still needed a
    split.  The loop ends when no index flags a panel.  Rounds are batched, so
    the integrand is called a handful of times per loop.  Returns (values,
    errors, settled, splits), one entry per index, and the final panels, which
    tile the first: a panel is split at its float64 midpoint, and only while
    it is wider than 1e-15 max(|b|, 1), about 4.5 ulp.
    """
    a, b = _to_float64(a), _to_float64(b)
    lo, hi = windows

    def meets(a, b):
        return (a < hi[:, None]) & (b > lo[:, None])

    def batch(a, b):
        sums = _gk15_batch(f, convert, a, b, floor)
        outside = ~meets(a, b)
        for part in sums:
            part[outside] = 0.0
            _ldexp(part, scale)
        return sums

    vals, errs, resabs = batch(a, b)
    splits = np.array(splits, dtype=int)
    settled = np.ones(len(vals), dtype=bool)
    while True:
        totals = vals.sum(axis=1)
        total_errs = errs.sum(axis=1).astype(float)
        tols = cfg.tolerance(totals)
        missing = settled & (total_errs > tols) & (reach * resabs.sum(axis=1).astype(float) <= tols)
        if not missing.any():
            break
        share = tols / (2.0 * meets(a, b).sum(axis=1))
        width_ok = (b - a) > 1e-15 * np.maximum(np.abs(b), 1.0)
        flags = (errs > share[:, None]) & (errs > 4.0 * floor * resabs) & width_ok & missing[:, None]
        wanted = flags.sum(axis=1)
        settled &= (wanted == 0) | (splits < cfg.max_subdivisions)
        flags[~settled] = False
        if not flags.any():
            break
        for i in np.flatnonzero(settled & (splits + wanted > cfg.max_subdivisions)):
            idx = np.flatnonzero(flags[i])
            flags[i, idx[np.lexsort((a[idx], -errs[i, idx]))][cfg.max_subdivisions - splits[i] :]] = False
        splits += flags.sum(axis=1)
        split = flags.any(axis=0)
        mid = 0.5 * (a[split] + b[split])
        child_a, child_b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
        a, b = np.concatenate([a[~split], child_a]), np.concatenate([b[~split], child_b])
        vals, errs, resabs = (
            np.concatenate([old[:, ~split], new], axis=1)
            for old, new in zip((vals, errs, resabs), batch(child_a, child_b))
        )
    return totals, total_errs, settled, splits, a, b


# ---------------------------------------------------------------------------
# The precision passes

def _integrand(values, ns, convert):
    """nodes -> values(r) w_n(r) for each n of ns at the flattened nodes r, one row per n, in convert's number type.

    A real product goes into the weight's array in place (`laguerre._into`),
    so the integrand is that one array; a complex or double-double one is new.
    A value that overflows comes out not finite, without a warning; its nan
    error sends the index on to the next pass (`_integrals`).
    """
    weight = _weight(ns, convert)

    def integrand(nodes):
        r = nodes.reshape(-1)
        with np.errstate(over="ignore", invalid="ignore"):
            g, w = values(r), weight(r)
            return _into(w, np.multiply, g, w)

    return integrand


class _Pass(NamedTuple):
    """One precision pass: its number type (convert), r -> 2^-scale g(sqrt(r)) (values), floors per index, name."""

    convert: Callable
    scale: int
    values: Callable
    floors: np.ndarray
    tier: str


def _passes(sym: Symbol, ns, callable_values) -> list[_Pass]:
    """The precision passes for the indices ns, in order: float64, then longdouble and double-double.

    A callable has no higher-precision form and gets float64 alone, with
    scale 0, running callable_values (`_callable_values`).  A structured
    symbol gets all three, each running its scaled form (`_scaled_combo`)
    in its own number type, so they differ only in convert, floors and tier.
    Every pass integrates values times the weight (`_integrand`); the scaled
    form stays within 2 and the weight within 1, so Dekker's split, which
    overflows at 2^996, never sees a large number.  The floors, one per index,
    bound each Gauss-Kronrod estimate below per unit of absolute integral.
    In float64 that is the rounding of the weight's exponent at the scale of
    lgamma(n + 2), in longdouble 100 eps of the type.  In double-double it is
    u (2^9 + 8 (lgamma(n + 2) + n + 1)), u = 2^-106: the weight
    exp(n ln r - r - ln n!) errs by a few u plus about u times the partial
    sums of its exponent, n |ln r|, r and ln n!, which near the weight's mass
    are about 2 lgamma(n + 2) + n; `exp` adds a few u and about |x| u more,
    and the recurrence and the Gauss-Kronrod sums a few hundred u at most
    (so about 6e-30 at n = 0 and 1.1e-28 at n = 100).
    """
    lgammas = np.array([lgamma(n + 2) for n in ns])
    f64_floors = _ERR_FLOOR + _EPS * lgammas
    if not isinstance(sym, LaguerreCombo):
        return [_Pass(_to_float64, 0, callable_values, f64_floors, "float64")]
    ld_eps = float(np.finfo(_to_longdouble(0.0).dtype).eps)
    passes = [
        (_to_float64, f64_floors, "float64"),
        (_to_longdouble, np.full(len(ns), 100 * ld_eps), "longdouble"),
        (_to_double_double, _dd.UNIT * (2.0**9 + 8.0 * (lgammas + np.asarray(ns) + 1.0)), "double-double"),
    ]
    return [_Pass(to, *_scaled_combo(sym, to), *rest) for to, *rest in passes]


# ---------------------------------------------------------------------------
# The normalized weight, the windows, the panels and the quadrature entry points

_PEAK_WINDOW_SIGMAS = 14.0  # smallest half-width of the window, in units of sqrt(n + 1)
_GRID_STEP = 0.5  # panel width of the shared grid, in x = sqrt(r) and in y = sqrt(xi r)
_BAND_MARGIN = 8.0  # reach of the y band past the term peaks, in y; each peak is about 1/2 wide
_INDEX_BLOCK = 32  # indices per shared loop; bounds the (indices x nodes) weight array


_STIRLING_FROM = 30  # ln n! from its series from here, from the exact n! below
_STIRLING_TERMS = 20  # the 21st term at n = 30 is 3.5e-47, and it bounds the rest
# ln(2 pi) / 2 in units of 2^-LOG_BITS, truncated from 60 digits
_HALF_LOG_TWO_PI = (918938533204672741780329736405617639861397473637783412817152 << _dd.LOG_BITS) // 10**60


@functools.cache
def _stirling_coefficients() -> tuple[int, ...]:
    """B_2k / (2k (2k - 1)) 2^LOG_BITS, k = _STIRLING_TERMS down to 1, truncated, from exact Bernoulli numbers.

    The Bernoulli numbers come from Akiyama and Tanigawa's algorithm, in Fractions.
    """
    from fractions import Fraction

    row, out = [], []
    for m in range(2 * _STIRLING_TERMS + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        if m and m % 2 == 0:  # row[0] is B_m
            c = row[0] / (m * (m - 1))
            out.append((c.numerator << _dd.LOG_BITS) // c.denominator)
    return tuple(reversed(out))


@functools.cache
def _log_factorial(n: int) -> tuple[float, float]:
    """ln n! as a double-double (hi, lo) from a fixed-point sum in 2^-LOG_BITS units; hi alone is correctly rounded.

    Below _STIRLING_FROM the logarithm of the exact n! (`_dd.log_fixed`).
    From there Stirling's series of ln Gamma(z), z = n + 1:
    (z - 1/2) ln z - z + ln(2 pi) / 2 + sum_k B_2k / (2k (2k - 1) z^(2k - 1)),
    the sum by Horner's rule in 1 / z^2; for real z the first omitted term
    bounds the rest.  A call takes some 15 us, where `decimal`'s correctly
    rounded ln alone takes 55 us.  math.lgamma is 3.2 ulp off at n = 2 and
    1.5 ulp at n = 91.
    """
    one = 1 << _dd.LOG_BITS
    if n < _STIRLING_FROM:
        return _dd.split(_dd.log_fixed(math.factorial(n)), one)
    z = n + 1
    inverse_square, series = one // (z * z), 0
    for c in _stirling_coefficients():
        series = c + (series * inverse_square >> _dd.LOG_BITS)
    # twice the value, so that (z - 1/2) ln z stays an integer
    twice = (2 * z - 1) * _dd.log_fixed(z) - 2 * z * one + 2 * (_HALF_LOG_TWO_PI + series // z)
    return _dd.split(twice, 2 * one)


def _weight(ns, convert=_to_float64):
    """r -> w_n(r) = exp(n ln r - r - ln n!) at points r > 0 in convert's number type, one row per index n of ns.

    Each row integrates to 1 on [0, oo); every rule here has interior nodes,
    so r = 0 never comes up.  ln n! is rounded from its double-double, once.
    Each call makes one (indices x points) array, n ln r, and takes the
    subtractions and exp in place (`laguerre._into`); a double-double computes
    out of place.  Nothing is kept between calls, so the array is the caller's.
    """
    log_norm = _in_type(_dd.DD(*np.array([_log_factorial(n) for n in ns]).T), convert).reshape(-1, 1)
    column = np.reshape(ns, (-1, 1))

    def weight(r):
        w = column * np.log(r)
        w = _into(w, np.subtract, w, r)
        w = _into(w, np.subtract, w, log_norm)
        return _into(w, np.exp, w)

    return weight


def _times_sup(sup_g: float, mass: np.ndarray) -> np.ndarray:
    """sup|g| times each weight mass, elementwise; 0 for no mass even when sup|g| is inf."""
    return np.multiply(sup_g, mass, out=np.zeros_like(mass), where=mass != 0)


# ---------------------------------------------------------------------------
# Bounds of the tails of Gamma(a, 1) at integer shapes a >= 1: the weight mass outside a window
#
# With the Poisson terms pi_k(x) = e^-x x^k / k!, the upper tail is
# Q(a, x) = sum_{k < a} pi_k(x) = pi_a(x) (a / x + a (a - 1) / x^2 + ...) and the
# lower tail P(a, x) = sum_{k >= a} pi_k(x) = pi_a(x) (1 + x / (a + 1) + ...).
# Each ratio of successive terms is at most the first, (a - 1) / x or x / (a + 1),
# so Q <= pi_a(x) a / (x - a + 1) for x > a - 1 and P <= pi_a(x) (a + 1) / (a + 1 - x)
# for x < a + 1, and Robbins' a! >= sqrt(2 pi a) (a / e)^a e^(1 / (12 a + 1))
# (Amer. Math. Monthly 62, 1955) bounds pi_a(x) by elementary functions.

_ROUNDING = 2.0**-46  # allowance of `_tail_bound` per unit of the magnitudes it sums
_EDGE_GAP = 2.0**-20  # `_tail_edge` stops where the log-bound lies this close below the target
_EDGE_STEPS = 60  # cap of `_tail_edge`'s Newton steps; it takes a handful


def _tail_bound(a, x, upper: bool) -> tuple[np.ndarray, np.ndarray]:
    """ln B and B, B >= Q(a, x) for x > a - 1 (upper) or B >= P(a, x) for 0 < x < a + 1; elementwise in float64.

    ln B = a ln(x / a) + a - x - ln sqrt(2 pi a) - 1 / (12 a + 1) plus
    ln(a / (x - a + 1)) for Q or ln((a + 1) / (a + 1 - x)) for P, the bounds
    above, plus an allowance _ROUNDING * size for its own rounding.
    size = |a ln(x / a)| + |the last log| + 3 a + x + 3 is at least a, which
    the rounding of x / a carries into a ln(x / a), plus the five terms'
    magnitudes plus 1.  An arithmetic rounding errs by at most u = 2^-53 of
    its result and np.log or np.exp by at most 4 ulp (0.5 and 0.62 measured
    with numpy's AVX-512 loops), so the roundings of ln B and of its exp stay
    below 16 u size, an eighth of the allowance; the rest covers the rounding
    of a sum of two bounds.  B is exp(ln B) plus 2^-1074, one unit of the
    subnormal range, where exp rounds to that grid; from 2^-1020 up the
    addition changes nothing.
    """
    base = x - (a - 1.0) if upper else (a + 1.0) - x
    power, scale = a * np.log(x / a), np.log((a if upper else a + 1.0) / base)
    log_bound = power + (a - x) + scale - (0.5 * np.log(2.0 * np.pi * a) + 1.0 / (12.0 * a + 1.0))
    log_bound += _ROUNDING * (np.abs(power) + np.abs(scale) + (3.0 * a + x + 3.0))
    return log_bound, np.exp(log_bound) + 2.0**-1074


def _tail_edge(a: np.ndarray, x: np.ndarray, ln_target: float, upper: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each point of x moved out along its tail until `_tail_bound` there is at most e^ln_target, and B there.

    The float arrays a and x have one shape, with x > a - 1 for Q (upper) or
    0 < x < a + 1 for P.  A point whose bound is at most the target stays.
    The others take Newton steps on ln B, which falls as x moves out of the
    peak, in x for Q and in ln x for P, aimed _EDGE_GAP / 2 below ln_target;
    each stops at the first point whose ln B lies in
    [ln_target - _EDGE_GAP, ln_target].  Where ln B is concave, past about
    one sqrt(a) from the peak, a step from the inside lands outside the
    target's point and the steps after it come back without crossing it;
    nearer the peak they approach from the inside.  Each index stops by its
    own test, so it gets the same bits in any batch.  The B returned is the
    bound at the point returned, also for an index still above the target
    after _EDGE_STEPS steps.
    """
    x = x.copy()
    log_bound, bound = _tail_bound(a, x, upper)
    moving = np.flatnonzero(log_bound > ln_target)
    for _ in range(_EDGE_STEPS):
        if not len(moving):
            break
        at, xt = a[moving], x[moving]
        excess = log_bound[moving] - (ln_target - 0.5 * _EDGE_GAP)
        if upper:
            x[moving] = xt - excess / (at / xt - 1.0 - 1.0 / (xt - (at - 1.0)))
        else:
            x[moving] = xt * np.exp(-excess / (at - xt + xt / ((at + 1.0) - xt)))
        log_bound[moving], bound[moving] = _tail_bound(at, x[moving], upper)
        moved = log_bound[moving]
        moving = moving[(moved > ln_target) | (moved < ln_target - _EDGE_GAP)]
    return x, bound


def _windows(ns, sup_g: float, rel_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The window [lo, hi] of each index n of ns, and a bound of the weight mass w_n leaves outside it; elementwise.

    Each window is centered on the peak r = n, at least 14 sqrt(n + 1) to each
    side, and leaves weight mass 0.05 * rel_tol / max(1, sup|g|) or less on
    each side; the floor of that mass keeps the window finite when sup|g| is inf.
    w_n is the Gamma(n + 1, 1) density, so the masses are its tails: the mass
    returned is the sum of the `_tail_bound`s at the edges used, where
    `_tail_edge` has moved each edge whose bound at the reach exceeds the
    target.  A lower reach at or below 0 leaves no mass below it.
    """
    ns = np.asarray(ns, dtype=float)
    ln_target = math.log(max(0.05 * rel_tol / max(1.0, sup_g), np.finfo(float).tiny))
    reach = _PEAK_WINDOW_SIGMAS * np.sqrt(ns + 1.0)
    hi, mass = _tail_edge(ns + 1.0, ns + reach, ln_target, upper=True)
    lo = ns - reach
    inside = lo > 0.0
    lo[inside], lower = _tail_edge(ns[inside] + 1.0, lo[inside], ln_target, upper=False)
    mass[inside] += lower
    return np.maximum(lo, 0.0), hi, mass


def _symbol_scale(sym: Symbol) -> int | None:
    """The scale xi of a structured symbol with terms; None for constants and callables."""
    if isinstance(sym, LaguerreCombo) and sym.coefficients:
        return sym.xi
    return None


_SUBNORMAL = math.ldexp(1.0, -1074)  # the smallest float64 subnormal
_DD_ROUNDINGS = 32.0  # float64 roundings per double-double operation that can land below the normal range


def _underflow_bound(sym: Symbol, sup_g: float, width: float, panels: int) -> float:
    """A bound of the subnormal roundoff in the integral over a window of this width.

    A rounding that lands below the normal range errs by up to 2^-1075 in
    absolute terms, however small the result; each counts 2^-1074 here, for
    the two parts of a complex value.  The Gauss-Kronrod sums take eight per
    unit width and one per panel.  At a node, a callable's product with the
    weight takes three, and the weight's own rounding is scaled by sup|g|.
    A structured symbol's integrand, its scaled form 2^-scale g times the
    weight (`_integrand`), takes four in each of its K - 1 recurrence steps
    (K coefficients), two per term, three for the Gaussian, offset and
    weight, and the weight's own: at most 6 K + 4, each times a factor or
    |g| 2^-scale of at most 2.  Its panel sums, taken at 2^-scale too, are
    multiplied by 2^scale, and so is each of these roundings.
    A double-double below 2^-969 has a subnormal lo half and takes at most
    _DD_ROUNDINGS such roundings per operation where float64 takes one; all
    passes of a structured symbol run that integrand, so that factor multiplies its counts.
    """
    if not isinstance(sym, LaguerreCombo):
        return _SUBNORMAL * (width * (sup_g + 11.0) + panels)
    exponent = _scaled_factors(sym)[0] - 1074
    roundings = _DD_ROUNDINGS * (width * (12.0 * len(sym.coefficients) + 16.0) + panels)
    return math.ldexp(roundings, exponent) if exponent < 900 else math.inf


def _grid_edges(lo: float, hi: float, scale: int = 1) -> np.ndarray:
    """The edges (k * _GRID_STEP)^2 / scale that cover [lo, hi]: uniform in sqrt(scale * r)."""
    first = math.floor(math.sqrt(scale * lo) / _GRID_STEP)
    last = math.ceil(math.sqrt(scale * hi) / _GRID_STEP)
    # sqrt rounds: step out where an edge misses lo or hi
    first -= (first * _GRID_STEP) ** 2 / scale > lo
    last += (last * _GRID_STEP) ** 2 / scale < hi
    return (np.arange(first, last + 1) * _GRID_STEP) ** 2 / scale


def _grid_panels(sym: Symbol, ns, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The panels (left ends, right ends) of the grid the indices ns share over [lo, hi].

    The edges are uniform in sqrt(s * r) for each Gaussian scale s of the
    integrand, so each panel is as wide as the peaks it meets.  s = 1 is the
    weight: in x = sqrt(r) every w_n is about 1/2 wide.  A structured symbol
    with terms adds s = xi: its factor exp(-(xi - 1) r) makes each term, times
    w_n, a weight peaked at xi r = n + j (j below the number of terms) and
    about 1/2 wide in y = sqrt(xi r); those edges cover only the band of y
    where the peaks of ns carry mass, _BAND_MARGIN to either side.
    """
    edges = _grid_edges(lo, hi)
    xi = _symbol_scale(sym)
    if xi is not None:
        y_lo = max(0.0, math.sqrt(min(ns)) - _BAND_MARGIN)
        y_hi = math.sqrt(max(ns) + len(sym.coefficients)) + _BAND_MARGIN
        band_lo, band_hi = max(lo, y_lo**2 / xi), min(hi, y_hi**2 / xi)
        if band_lo < band_hi:
            band = _grid_edges(band_lo, band_hi, xi)
            # np.union1d's sorted, repeat-free merge, without the numpy.ma import it costs
            merged = np.sort(np.concatenate([edges, band[(band > edges[0]) & (band < edges[-1])]]))
            edges = merged[np.append(True, merged[1:] != merged[:-1])]
    return edges[:-1], edges[1:]


def _callable_values(sym: Symbol):
    """r -> g(sqrt(r)) on the flattened float64 nodes of whole panels, each panel's nodes evaluated once.

    A panel recurs in every block whose windows it meets, and bisection makes
    the same children in each, so g is kept by the bytes of a panel's nodes.
    """
    rows: dict[bytes, np.ndarray] = {}

    def values(r: np.ndarray) -> np.ndarray:
        r = r.reshape(-1, len(_gk15_rule(_to_float64)[0]))  # one row per panel
        keys = [row.tobytes() for row in r]
        new = [i for i, key in enumerate(keys) if key not in rows]
        if new:
            fresh = eval_symbol(sym, np.sqrt(r[new]).ravel()).reshape(len(new), -1)
            rows.update(zip([keys[i] for i in new], fresh))
        return np.array([rows[key] for key in keys]).ravel()

    return values


def _integrals(sym: Symbol, ns, cfg: QuadConfig, symbol_err: float = 0.0) -> list[Eigenvalue]:
    """The "quad" record of gamma(n) at each index of ns, by adaptive quadrature on one shared panel grid.

    Each block of _INDEX_BLOCK indices runs one loop over the ordered
    precision passes of `_passes`, each pass one `_adaptive_gk` call.  The
    float64 pass takes the whole block on the panels of `_grid_panels` that
    meet its windows, to tau.  Each later pass takes the indices that missed
    the last pass's target with their panels settled within the budget, on
    that pass's final panels that meet at least one of their windows, to
    tau / 10.  The budget is per index over all passes, and `subdivisions`
    counts the splits of every pass.  The windows come from one `_windows`
    call, each index's state is one column over the whole sequence, and the
    records are built from those columns once.  An index whose value
    overflowed has a nan error, so it goes on to the next pass, whose number
    type may hold it, and converges only there.
    Splitting fails fast at the floor of the finest pass there is.  A later pass replaces an
    index's value, error and tier only where its error is not nan and not larger than the one
    it would replace.  Each estimate is the kept pass's, plus the bound of the window's tail,
    the subnormal roundoff and symbol_err, which bounds the error of the symbol's own values;
    w_n has unit mass, so each estimate carries it whole.  A record converges only with its
    value and estimate finite: past the float range, sup|g| or a sum reads inf.
    """
    ns = list(ns)
    sup_g = sup_estimate(sym)
    passes = _passes(sym, ns, _callable_values(sym))
    reach = np.min([pass_.floors for pass_ in passes], axis=0)
    lo, hi, mass = _windows(ns, sup_g, cfg.rel_tol)
    values, errs, underflow = np.zeros(len(ns), dtype=complex), np.zeros(len(ns)), np.zeros(len(ns))
    settled, splits = np.ones(len(ns), dtype=bool), np.zeros(len(ns), dtype=int)
    tiers = np.full(len(ns), passes[0].tier, dtype=object)
    # a panel sum, total or error past the float range reads inf or nan, which never converges
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(ns), _INDEX_BLOCK):
            rows, pass_cfg = np.arange(start, min(start + _INDEX_BLOCK, len(ns))), cfg
            a, b = _grid_panels(sym, ns[start : start + _INDEX_BLOCK], lo[rows].min(), hi[rows].max())
            for p, (convert, scale, g, floors, tier) in enumerate(passes):
                if p:
                    rows = rows[settled[rows] & ~(errs[rows] <= pass_cfg.tolerance(values[rows]))]
                    if not len(rows):
                        break
                    mine = ((a < hi[rows, None]) & (b > lo[rows, None])).any(axis=0)
                    a, b = a[mine], b[mine]
                    pass_cfg = QuadConfig(cfg.rel_tol / 10.0, cfg.max_subdivisions)
                found, found_errs, settled[rows], splits[rows], a, b = _adaptive_gk(
                    _integrand(g, [ns[i] for i in rows], convert), convert, scale, a, b, pass_cfg,
                    floors[rows, None], reach[rows], (lo[rows], hi[rows]), splits[rows],
                )
                take = ~(np.isnan(found_errs) | (found_errs > errs[rows])) if p else slice(None)
                values[rows[take]], errs[rows[take]], tiers[rows[take]] = found[take], found_errs[take], tier
                if not p:  # splits keep the outer edges of the grid
                    underflow[rows] = _underflow_bound(sym, sup_g, b.max() - a.min(), len(a))
    est_abs_errs = errs + _times_sup(sup_g, mass) + underflow + symbol_err
    converged = (errs <= cfg.tolerance(values)) & np.isfinite(values) & np.isfinite(est_abs_errs)
    columns = values, np.full(len(ns), "quad", dtype=object), est_abs_errs, converged, splits, tiers
    return list(map(Eigenvalue, *(column.tolist() for column in columns)))


def gamma_quadrature(sym: Symbol, n: int, cfg: QuadConfig | None = None, *, shared=None) -> Eigenvalue:
    """gamma(n) for an arbitrary bounded symbol, by adaptive quadrature.

    Every decision tests tau(v) = rel_tol * max(1, |v|) (`QuadConfig.tolerance`),
    absolute below unit size.  The float64 panel estimates, each at least its
    panel's roundoff floor, sum to the error err.  If err is not within
    tau(value), nan included, for a structured symbol with its panels settled
    in the budget, the later passes of `_passes` take over as `_integrals`
    describes; `subdivisions` counts every split, and `tier` names the pass
    whose value the record holds.
    The window leaves weight mass 0.05 * rel_tol / max(1, sup|g|) or less on
    each side, so the out-of-window bound sup|g| * (mass outside) is at most
    rel_tol / 10 for a finite sup|g|.  The record's `est_abs_err` is err
    plus that bound plus the subnormal roundoff, which no relative floor
    covers (`_underflow_bound`); its `converged` is err <= tau(value) with
    the value and `est_abs_err` finite, so no record is certified at inf.
    `shared` is this index's record, returned as it is, from the batch that
    `gamma_sequence` and `shifted_gamma_residual` run over a whole sequence
    on one panel grid (`_integrals`); without it the batch runs for n alone.
    """
    cfg = cfg or QuadConfig()
    n = _check_index(n, "n")
    return shared if shared is not None else _integrals(sym, [n], cfg)[0]


def _quadrature_records(sym: Symbol, ns, cfg: QuadConfig, symbol_err: float = 0.0) -> list[Eigenvalue]:
    """One `gamma_quadrature` record per index of ns, all from one shared batch."""
    batch = _integrals(sym, ns, cfg, symbol_err)
    return [gamma_quadrature(sym, n, cfg, shared=res) for n, res in zip(ns, batch)]


def gamma_sequence(
    sym: Symbol,
    n_max: int,
    cfg: QuadConfig | None = None,
    engine: str = "auto",
) -> EigenSeq:
    """gamma(0..n_max) as `Eigenvalue` records.

    engine="auto" uses the closed form whenever the symbol admits one,
    "closed" insists on it, "quad" forces quadrature: one batch over the
    whole sequence on a shared panel grid, whatever the symbol.
    """
    n_max = _check_index(n_max, "n_max")
    if engine not in ("auto", "closed", "quad"):
        raise ValueError(f"unknown engine {engine!r}")
    closed = has_closed_form(sym)
    if engine == "closed" and not closed:
        raise ValueError(f"{describe_symbol(sym)} has no closed form")
    use_closed = closed if engine == "auto" else engine == "closed"
    if use_closed:
        values = closed_form_sequence(sym.coefficients, sym.xi, sym.offset, n_max).values.tolist()
        return EigenSeq([Eigenvalue(value, "closed") for value in values])
    return EigenSeq(_quadrature_records(sym, range(n_max + 1), cfg or QuadConfig()))


# ---------------------------------------------------------------------------
# Exponential averaging and the shift identity

def _averaging_rule(j: int, sup_g: float, rel_tol: float, xi: int):
    """Nodes, weights and error of E[f(G)], G ~ Gamma(j, 1), on Gauss-Kronrod panels.

    w_{j-1} is the Gamma(j, 1) density: its window (`_windows`) is the rule's
    span [lo, hi] with a bound of the mass outside, and `_weight` its density.
    The first panel is 3.75 / xi wide, 1.5 times the decay length of a
    scale-xi symbol's Gaussian factor, each is 1.5 times wider than the last,
    up to 3.75, and the last ends at hi; 15 nodes per panel (`_gk15_rule`)
    keep the panel error of these smooth integrands near machine precision.
    The error, sup|g| times the mass outside [lo, hi] plus sup|g| times the
    weights' miss of unit mass, is the same at every point averaged over.
    """
    (lo,), (hi,), mass = _windows([j - 1], sup_g, rel_tol)
    edges, width = [lo], 3.75 / xi
    while edges[-1] + width < hi:
        edges.append(edges[-1] + width)
        width = min(1.5 * width, 3.75)
    edges = np.array([*edges, hi])
    xgk, wgk, _ = _gk15_rule(_to_float64)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * xgk).ravel()
    weights = (half[:, None] * wgk).ravel() * _weight([j - 1])(nodes)[0]
    return nodes, weights, float(_times_sup(sup_g, mass + abs(weights.sum() - 1.0))[0])


_AVERAGE_ROWS = 128  # points r averaged per call of the symbol; bounds the (points x nodes) array


def _average(evaluate, r: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """E[g(sqrt(r + G))] at each r, where evaluate(x) = g(x) on an array."""
    out = []
    for start in range(0, len(r), _AVERAGE_ROWS):
        x = r[start : start + _AVERAGE_ROWS, None] + nodes[None, :]
        np.sqrt(x, out=x)
        out.append(evaluate(x.ravel()).reshape(x.shape) @ weights)
    return np.concatenate(out)


def shifted_gamma_residual(sym: Symbol, j: int, n_max: int, cfg: QuadConfig | None = None) -> float:
    """Max over n <= n_max of |gamma(n + j) - gamma-of-level-j-average(n)|.

    The left side uses the closed form when available (quadrature otherwise);
    the right side evaluates the Gamma(j, 1) averaging integral inside the
    quadrature, so the identity is checked across genuinely different paths.
    Each side is one batch over its indices, and each record of the right
    side carries the averaging rule's own error in its estimate.
    """
    cfg = cfg or QuadConfig()
    j = _check_index(j, "j")
    if j < 1:
        raise ValueError("shift order j must be >= 1")
    n_max = _check_index(n_max, "n_max")
    sup_g = sup_estimate(sym)
    nodes, weights, rule_err = _averaging_rule(j, sup_g, cfg.rel_tol, _symbol_scale(sym) or 1)
    base = functools.partial(eval_symbol, sym)
    averaged = CallableSymbol(lambda x: _average(base, np.asarray(x, dtype=float) ** 2, nodes, weights), sup_g)
    if has_closed_form(sym):
        lefts = closed_form_sequence(sym.coefficients, sym.xi, sym.offset, n_max + j).values[j:].tolist()
    else:
        lefts = [res.value for res in _quadrature_records(sym, range(j, n_max + j + 1), cfg)]
    rights = _quadrature_records(averaged, range(n_max + 1), cfg, rule_err)
    return max(abs(left - right.value) for left, right in zip(lefts, rights))
