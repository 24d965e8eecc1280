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
from a(0) = e_0, and takes one dot product with the coefficients per n.
That is O(N) float work per index, O(N * n_max) for the sequence, with every
term nonnegative, so nothing cancels and each a_k(n) carries a relative
error of at most about 2n roundings.
Everything else goes through quadrature against the normalized weight
w_n(r) = exp(n ln r - r - ln n!), a probability density peaked at
r = n with width sqrt(n + 1).  The quadrature window is centered on the
peak and reaches, by the inverse incomplete gamma function, to where the
weight mass outside it times the symbol bound sup|g| is below rel_tol / 10;
that product is folded into the reported error estimate.  The window is
refined adaptively with a Gauss-Kronrod 7/15 rule.  Every decision tests
tau(v) = rel_tol * max(1, |v|).  In x = sqrt(r) every weight w_n has nearly
the same width, about 1/2 (the sqrt-distance of the paper), and a structured
symbol's Gaussian factor exp(-(xi - 1) r) makes each of its terms a weight of
the same shape in y = sqrt(xi r).  So the indices of any sequence share one
panel grid, uniform in x and, where the terms carry mass, in y: one adaptive
loop integrates a block of weights against one set of panels, each index
counting only the panels that meet its own window, and the symbol is
evaluated once per node for the whole sequence.  Each block of indices runs
one loop over an ordered list of precision passes: float64, then, for a
structured symbol, longdouble and mpmath.  A pass is one run of the adaptive
loop over the block's indices that missed the last pass's target with their
panels settled, from that pass's panels that meet their windows.  The passes
past float64 aim at tau / 10, each with an error that is its own
Gauss-Kronrod estimate, floored at 100 eps of its number type; an index
leaves at the first pass that meets its target.  Callables stay in float64.

Each eigenvalue comes back as one `Eigenvalue` record: its value, the engine
that produced it ("closed" or "quad") and, for quadrature, the error
estimate, the `converged` flag and the number of subdivisions.  `EigenSeq`
holds one record per index.

The module ends with the shift identity.  One exponential average
integrates g(sqrt(u)) against the unit-mass kernel e^{r-u} on [r, oo).  A sum
of j independent unit exponentials is Gamma(j, 1)-distributed, so j averages
compose into the single integral

    A_j g(r) = E[g(sqrt(r + G))] = integral_0^oo g(sqrt(r + s)) s^{j-1} e^{-s} / (j-1)! ds,

which `_averaging_rule` discretizes by one composite Gauss-Legendre rule on
panels that start at the symbol's own decay length 1/xi and widen
geometrically, and `_average` applies.  Averaging j times realizes the j-fold
left shift of gamma_g at the symbol level, which `shifted_gamma_residual`
checks numerically.  The rule's own error, sup|g| times the Gamma(j, 1) mass
past its horizon plus sup|g| times its weights' miss of unit mass, goes into
the estimate of every averaged record.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import lgamma
from typing import NamedTuple

import mpmath as _mp
import numpy as np
from scipy.special import gammainc, gammaincc, gammainccinv, gammaincinv

from .laguerre import _as_float_array, _check_index, _check_positive
from .symbols import (
    CallableSymbol,
    LaguerreCombo,
    Symbol,
    _check_scale,
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


def closed_form_sequence(coeffs, xi: int, p, n_max: int) -> ClosedSequence:
    """gamma(0..n_max) of sum_k coeffs[k] * basic(k, xi) plus the constant p.

    Streams a(n) = (binom(n, k) xi^-(n-k))_k through the Pascal recurrence
    a_k(n+1) = a_k(n) / xi + a_{k-1}(n) from a(0) = e_0, one dot product
    per n, in O(N * n_max) float work and O(N) memory.  gamma(n) is within
    (2n + N + 1) * 2^-53 * (sum_k |coeffs[k]| a_k(n) + |p|) of the exact
    value, up to subnormal roundoff once terms underflow.  The value at n
    does not depend on n_max, so every caller gets the same bits for it.
    `next_terms` is a(n_max + 1), the start of the sequence's tail.
    """
    xi = _check_scale(xi)
    n_max = _check_index(n_max, "n_max")
    coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
    p = complex(p)
    real = np.ascontiguousarray(coeffs.real)
    imag = np.ascontiguousarray(coeffs.imag)
    has_imag = bool(imag.any())
    terms = np.zeros(len(coeffs))
    spare = np.empty_like(terms)
    if len(terms):
        terms[0] = 1.0
    out_re = np.zeros(n_max + 1)
    out_im = np.zeros(n_max + 1)
    for n in range(n_max + 1):
        out_re[n] = real @ terms
        if has_imag:
            out_im[n] = imag @ terms
        np.divide(terms, xi, out=spare)
        spare[1:] += terms[:-1]
        terms, spare = spare, terms
    values = np.empty(n_max + 1, dtype=complex)
    values.real = out_re + p.real
    values.imag = out_im + p.imag
    return ClosedSequence(values, terms)


def has_closed_form(sym: Symbol) -> bool:
    return isinstance(sym, LaguerreCombo)


def _closed_form_params(sym: Symbol) -> tuple[tuple, int, complex]:
    """(coefficients, xi, p) of a structured symbol."""
    if not has_closed_form(sym):
        raise ValueError(f"no closed form for {describe_symbol(sym)}")
    return sym.coefficients, sym.xi, sym.offset


# The two single-index reads below stay only because the benchmark's span
# table (perfbench/tracing.py, TRACED and CLOSED) binds them by name.

def gamma_combo_closed_form(coeffs, xi: int, p, n: int) -> complex:
    """gamma(n) of sum_k coeffs[k] * basic(k, xi) plus the constant p."""
    return closed_form_sequence(coeffs, xi, p, n).values[n]


def gamma_for_symbol_closed(sym: Symbol, n: int) -> complex:
    """Closed-form eigenvalue for structured symbols."""
    return gamma_combo_closed_form(*_closed_form_params(sym), n)


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
    |value - gamma(n)|, converged says the value met its tolerance).
    """

    value: complex
    engine: str
    est_abs_err: float | None = None
    converged: bool = True
    subdivisions: int = 0


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

# mpmath passes run at _MP_DPS digits, eps 10^-_MP_DPS; the constants carry
# 33 digits, so _MP_DPS must stay <= 32
_MP_DPS = 30
_MP_FLOOR = 100.0 * 10.0**-_MP_DPS
_to_longdouble = functools.partial(np.asarray, dtype=np.longdouble)
_to_float64 = functools.partial(np.asarray, dtype=float)


def _to_mpf(values) -> np.ndarray:
    """An object array of mpmath numbers; decimal strings round to _MP_DPS digits, floats of any width are exact."""
    with _mp.workdps(_MP_DPS):
        exact = [_mp.mpf(v) if isinstance(v, str) else _mp.fdiv(*v.as_integer_ratio()) for v in values]
        return np.array(exact, dtype=object)


@functools.cache
def _gk15_rule(convert):
    """(Kronrod nodes, Kronrod weights, Gauss-7 weights) on [-1, 1], in convert's number type.

    Each number is converted straight from its string, so an mpmath rule has
    _MP_DPS digits at any working precision.  Gauss-7 uses the odd Kronrod nodes.
    """
    nodes = tuple("-" + x for x in _XGK_POS) + ("0",) + _XGK_POS[::-1]
    wgk, wg7 = _WGK_POS + _WGK_POS[-2::-1], _WG_POS + _WG_POS[-2::-1]
    return convert(nodes), convert(wgk), convert(wg7)


_ERR_FLOOR = 1.1e-14  # ~50 ulp of the panel's absolute integral
_EPS = float(np.finfo(float).eps)


def _gk15_batch(f, rule, a: np.ndarray, b: np.ndarray, floor):
    """Gauss-Kronrod 7/15 on a batch of panels, in the number type of the rule and the panels.

    f maps the (panels, 15) node array to the integrand of every index at
    once, one leading row per index.  Returns (values, error estimates,
    absolute integrals), each of shape (indices, panels); no estimate is below
    the index's floor, a column, times the panel's absolute integral.  All
    panel nodes are evaluated in a single call to f.
    """
    xgk, wgk, wg7 = rule
    width = b - a
    half = 0.5 * width
    center = 0.5 * (a + b)
    nodes = center[:, None] + half[:, None] * xgk[None, :]
    fx = f(nodes).reshape(-1, *nodes.shape)  # (indices, panels, nodes)
    resk = half * (fx @ wgk)
    resg = half * (fx[..., 1::2] @ wg7)
    mean = (resk / width)[..., None]
    resabs = half * (np.abs(fx) @ wgk)
    resasc = half * (np.abs(fx - mean) @ wgk)
    diff = np.abs(resk - resg)
    spread = resasc > 0.0
    safe = np.where(spread, resasc, 1.0)
    err = np.where(spread, resasc * np.minimum(1.0, (200.0 * diff / safe) ** 1.5), diff)
    return resk, np.maximum(err, floor * resabs), resabs


def _adaptive_gk(f, convert, a, b, cfg: QuadConfig, floor, reach, windows, splits):
    """Globally adaptive bisection of the panels [a, b] for many indices at once.

    The arithmetic is in the number type convert makes.  f gives the
    integrand of every index at once (`_gk15_batch`); floor (a column), reach,
    the windows = (lo, hi) and splits have one entry per index.  An index
    counts only the panels that meet its own [lo, hi].  Until an index's
    summed error is within tau(its total), each round splits every panel
    whose error exceeds that index's share of tau, skipping panels already at
    the index's roundoff floor (splitting cannot improve those); a panel one
    index flags is split for all.  An index flags nothing once reach, the
    floor of the finest pass there is, times its absolute integral exceeds
    tau: no pass can then meet it.  Each index adds the splits it flags to
    its splits of earlier passes, against the one budget, and is not
    `settled`, and flags nothing more, if the budget ran out while a panel
    still needed a split.  The loop ends when no index flags a panel.  Rounds
    are batched, so the integrand is called a handful of times per loop.
    Returns (values, errors, settled, splits), one entry per index, and the
    final panels.
    """
    rule = _gk15_rule(convert)
    a, b = convert(a), convert(b)
    lo, hi = windows

    def meets(a, b):
        return (a < hi[:, None]) & (b > lo[:, None])

    def batch(a, b):
        sums = _gk15_batch(f, rule, a, b, floor)
        outside = ~meets(a, b)
        for part in sums:
            part[outside] = 0.0
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
        idx = np.flatnonzero(flags.any(axis=0))
        mid = 0.5 * (a[idx] + b[idx])
        child_a = np.concatenate([a[idx], mid])
        child_b = np.concatenate([mid, b[idx]])
        keep = np.ones(len(a), dtype=bool)
        keep[idx] = False
        a = np.concatenate([a[keep], child_a])
        b = np.concatenate([b[keep], child_b])
        vals, errs, resabs = (
            np.concatenate([old[:, keep], new], axis=1)
            for old, new in zip((vals, errs, resabs), batch(child_a, child_b))
        )
    return totals, total_errs, settled, splits, a, b


# ---------------------------------------------------------------------------
# The precision passes

def _mp_scalar(z: complex):
    z = complex(z)
    return _mp.mpf(z.real) if z.imag == 0.0 else _mp.mpc(z.real, z.imag)


def _mp_integrand(sym: LaguerreCombo, ns):
    """r -> g(sqrt(r)) r^n e^-r / n! for each n of ns on an object array of mpmath nodes, node by node.

    One row per index, one column per node.  The term factors c_k (-1)^k
    xi^(k+1) and the factorials are formed once per call, at the working
    precision; each node runs the Laguerre recurrence once for all of ns, in
    scalar mpmath, so no operation mixes an mpmath number with an array.
    """

    def integrand(nodes):
        mp_xi = _mp.mpf(sym.xi)
        factors = [_mp_scalar(c) * (-1) ** k * mp_xi ** (k + 1) for k, c in enumerate(sym.coefficients)]
        offset, facts = _mp_scalar(sym.offset), [_mp.factorial(n) for n in ns]

        def at(r):
            t, total, prev, lag = sym.xi * r, _mp.mpf(0), 0, _mp.mpf(1)
            for k, factor in enumerate(factors):
                if factor:
                    total = total + factor * lag
                prev, lag = lag, ((2 * k + 1 - t) * lag - k * prev) / (k + 1)
            g, decay = total * _mp.e ** (-(sym.xi - 1) * r) + offset, _mp.e ** (-r)
            return [g * r**n * decay / fact for n, fact in zip(ns, facts)]

        return np.array([at(r) for r in nodes.ravel()], dtype=object).T

    return integrand


def _passes(sym: Symbol, ns, values_at):
    """The precision passes for the indices ns, in order: (convert, integrand of some of ns, floors).

    float64 and longdouble (the platform's type) share one numpy integrand,
    g at the nodes (values_at) times the weights; mpmath at _MP_DPS digits
    has its own.  The floors, one per index, bound each Gauss-Kronrod
    estimate below per unit of absolute integral: in float64 the rounding of
    the weight's exponent at the scale of lgamma(n + 2), past it 100 eps of
    the type, the roundoff at the integrand's typical log-scale magnitude.
    Callables have no higher-precision form and get float64 alone.
    """

    def numpy_integrand(ns):
        return lambda r: values_at(r).ravel() * _weight(ns, r.ravel())

    passes = [(_to_float64, numpy_integrand, np.array([_ERR_FLOOR + _EPS * lgamma(n + 2) for n in ns]))]
    if isinstance(sym, LaguerreCombo):
        ld_eps = float(np.finfo(_to_longdouble(0.0).dtype).eps)
        passes.append((_to_longdouble, numpy_integrand, np.full(len(ns), 100.0 * ld_eps)))
        passes.append((_to_mpf, functools.partial(_mp_integrand, sym), np.full(len(ns), _MP_FLOOR)))
    return passes


# ---------------------------------------------------------------------------
# The normalized weight, the windows, the panels and the quadrature entry points

_PEAK_WINDOW_SIGMAS = 14.0  # smallest half-width of the window, in units of sqrt(n + 1)
_GRID_STEP = 0.5  # panel width of the shared grid, in x = sqrt(r) and in y = sqrt(xi r)
_BAND_MARGIN = 8.0  # reach of the y band past the term peaks, in y; each peak is about 1/2 wide
_INDEX_BLOCK = 32  # indices per shared loop; bounds the (indices x nodes) weight array


@functools.cache
def _log_factorial(n: int) -> float:
    """ln n!, correctly rounded; math.lgamma is 3.2 ulp off at n = 2 and 1.5 ulp at n = 91."""
    with _mp.workdps(_MP_DPS):
        return float(_mp.loggamma(n + 1))


def _weight(ns, r: np.ndarray) -> np.ndarray:
    """w_n(r) = exp(n ln r - r - ln n!) at the points r > 0, one row per index n of ns.

    Each row integrates to 1 on [0, oo); every rule here has interior nodes,
    so r = 0 never comes up.  The float dtype of r is preserved so the
    extended-precision pass keeps its accuracy through the weight factor.
    """
    r = _as_float_array(r)
    log_norm = np.array([[_log_factorial(n)] for n in ns])
    return np.exp(np.reshape(ns, (-1, 1)) * np.log(r) - r - log_norm)


def _times_sup(sup_g: float, mass: float) -> float:
    """sup|g| times a weight mass, 0 for no mass even when sup|g| is inf."""
    return sup_g * mass if mass else 0.0


def _window(n: int, sup_g: float, rel_tol: float) -> tuple[float, float, float]:
    """Index n's window [lo, hi] and the weight mass w_n leaves outside it.

    The window is centered on the peak r = n, at least 14 sqrt(n + 1) to each
    side, and leaves weight mass 0.05 * rel_tol / max(1, sup|g|) or less on
    each side; the floor of that mass keeps the window finite when sup|g| is inf.
    """
    sigma = math.sqrt(n + 1.0)
    mass_target = max(0.05 * rel_tol / max(1.0, sup_g), np.finfo(float).tiny)
    lo = max(0.0, min(n - _PEAK_WINDOW_SIGMAS * sigma, float(gammaincinv(n + 1, mass_target))))
    hi = max(n + _PEAK_WINDOW_SIGMAS * sigma, float(gammainccinv(n + 1, mass_target)))
    return lo, hi, float(gammainc(n + 1, lo) + gammaincc(n + 1, hi))


def _symbol_scale(sym: Symbol) -> int | None:
    """The scale xi of a structured symbol with terms; None for constants and callables."""
    if isinstance(sym, LaguerreCombo) and sym.coefficients:
        return sym.xi
    return None


_SUBNORMAL = math.ldexp(1.0, -1074)  # the smallest float64 subnormal


def _underflow_bound(sym: Symbol, sup_g: float, width: float, panels: int) -> float:
    """A bound of the subnormal roundoff in the float64 integral over a window of this width.

    A rounding that lands below the normal range errs by up to 2^-1075 in
    absolute terms, however small the result.  At a node, the K nonzero terms
    of a structured symbol take K such roundings before `_eval_terms` scales
    them by at most xi^(k_max + 1); the offset, that scaling and the product
    with the weight take three more, and the weight's own rounding is scaled
    by |g| <= sup|g|.  The Gauss-Kronrod sums take eight more per unit width
    and one per panel.  Each count is doubled for the two parts of a complex value.
    """
    coeffs = sym.coefficients if isinstance(sym, LaguerreCombo) else ()
    rows = [k for k, c in enumerate(coeffs) if c]
    scaled = 0.0  # K * xi^(k_max + 1) * 2^-1074, formed in log space
    if rows:
        log_scale = (rows[-1] + 1) * math.log(sym.xi) + math.log(_SUBNORMAL)
        scaled = len(rows) * (math.exp(log_scale) if log_scale < 709.0 else math.inf)
    return width * scaled + _SUBNORMAL * (width * (sup_g + 11.0) + panels)


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
            edges = np.union1d(edges, band[(band > edges[0]) & (band < edges[-1])])
    return edges[:-1], edges[1:]


def _node_values(sym: Symbol):
    """r -> g(sqrt(r)) on a (panels, nodes) array, each panel's nodes evaluated once.

    A panel of the shared grid recurs in every index block whose windows it
    meets, and bisection makes the same children in each, so the rows are
    kept by the bytes of their nodes.  Rows of longdouble nodes have other
    bytes, so they get their own entries; their padding bytes can only make
    equal nodes miss, never make different nodes meet.
    """
    rows: dict[bytes, np.ndarray] = {}

    def values(r: np.ndarray) -> np.ndarray:
        keys = [row.tobytes() for row in r]
        new = [i for i, key in enumerate(keys) if key not in rows]
        if new:
            fresh = eval_symbol(sym, np.sqrt(r[new]).ravel()).reshape(len(new), -1)
            rows.update(zip([keys[i] for i in new], fresh))
        return np.array([rows[key] for key in keys])

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
    counts the splits of every pass.  Splitting fails fast at the floor of
    the finest pass there is.  Each estimate is the last pass's, plus the
    window's tail, the subnormal roundoff and symbol_err, which bounds the
    error of the symbol's own values; w_n has unit mass, so each estimate
    carries it whole.
    """
    ns = list(ns)
    sup_g = sup_estimate(sym)
    passes = _passes(sym, ns, _node_values(sym))
    reach = np.min([floors for *_, floors in passes], axis=0)
    out = []
    for start in range(0, len(ns), _INDEX_BLOCK):
        block = ns[start : start + _INDEX_BLOCK]
        lo, hi, mass = np.array([_window(n, sup_g, cfg.rel_tol) for n in block]).T
        a, b = _grid_panels(sym, block, lo.min(), hi.max())
        values, errs = np.zeros(len(block), dtype=complex), np.zeros(len(block))
        settled, splits = np.ones(len(block), dtype=bool), np.zeros(len(block), dtype=int)
        rows, pass_cfg = np.arange(len(block)), cfg
        for p, (convert, integrand, floors) in enumerate(passes):
            if p:
                rows = rows[settled[rows] & (errs[rows] > pass_cfg.tolerance(values[rows]))]
                if not len(rows):
                    break
                mine = ((a < hi[rows, None]) & (b > lo[rows, None])).any(axis=0)
                a, b = a[mine], b[mine]
                pass_cfg = QuadConfig(cfg.rel_tol / 10.0, cfg.max_subdivisions)
            # only structured symbols reach the later passes; a callable runs at the caller's mpmath precision
            with _mp.workdps(_MP_DPS if p else _mp.mp.dps):
                values[rows], errs[rows], settled[rows], splits[rows], a, b = _adaptive_gk(
                    integrand([block[i] for i in rows]), convert, a, b, pass_cfg,
                    floors[start + rows, None], reach[start + rows], (lo[rows], hi[rows]), splits[rows],
                )
            if not p:  # splits keep the outer edges of the grid
                underflow = _underflow_bound(sym, sup_g, b.max() - a.min(), len(a))
        converged = errs <= cfg.tolerance(values)
        for i in range(len(block)):
            est_abs_err = errs[i] + _times_sup(sup_g, mass[i]) + underflow + symbol_err
            out.append(Eigenvalue(complex(values[i]), "quad", float(est_abs_err), bool(converged[i]), int(splits[i])))
    return out


def gamma_quadrature(sym: Symbol, n: int, cfg: QuadConfig | None = None, *, shared=None) -> Eigenvalue:
    """gamma(n) for an arbitrary bounded symbol, by adaptive quadrature.

    Every decision tests tau(v) = rel_tol * max(1, |v|) (`QuadConfig.tolerance`),
    absolute below unit size.  The float64 panel estimates, each at least its
    panel's roundoff floor, sum to the error err.  If err > tau(value) on a
    structured symbol whose panels all settled within the subdivision budget,
    longdouble and then mpmath rerun `_adaptive_gk` from the last pass's
    panels that meet the window, to tau / 10 and with the rest of the budget,
    up to the first pass that meets it; `subdivisions` counts every split.
    The window leaves weight mass 0.05 * rel_tol / max(1, sup|g|) or less on
    each side, so the out-of-window bound sup|g| * (mass outside) is at most
    rel_tol / 10 for a finite sup|g|.  The record's `converged` is
    err <= tau(value); its `est_abs_err` is err plus that bound plus the
    subnormal roundoff, which no relative floor covers (`_underflow_bound`).
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
        values = closed_form_sequence(*_closed_form_params(sym), n_max).values.tolist()
        return EigenSeq([Eigenvalue(value, "closed") for value in values])
    return EigenSeq(_quadrature_records(sym, range(n_max + 1), cfg or QuadConfig()))


# ---------------------------------------------------------------------------
# Exponential averaging and the shift identity

def _averaging_rule(j: int, sup_g: float, rel_tol: float, xi: int):
    """Nodes, weights and error of E[f(G)], G ~ Gamma(j, 1), as a composite Gauss-Legendre rule.

    The horizon T leaves a Gamma(j, 1) tail mass below e^-2 * rel_tol /
    sup|g|, at least 15, and below the smallest normal float when sup|g| is
    inf.  The first panel is 2.5 / xi wide, the decay length of a scale-xi
    symbol's Gaussian factor, and each panel is 1.5 times wider than the
    last, up to 2.5.  Ten nodes per panel keep the panel error of these
    smooth integrands near machine precision.  The error, sup|g| times the
    tail mass plus sup|g| times the weights' miss of unit mass, is the same
    at every point the rule averages over.
    """
    tail = max(min(1.0, rel_tol / max(sup_g, 1e-12)) * math.exp(-2.0), np.finfo(float).tiny)
    horizon = max(15.0, float(gammainccinv(j, tail)))
    edges = [0.0]
    width = 2.5 / xi
    while edges[-1] < horizon:
        edges.append(edges[-1] + width)
        width = min(1.5 * width, 2.5)
    edges = np.array(edges)
    base_x, base_w = np.polynomial.legendre.leggauss(10)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel() * _weight([j - 1], nodes)[0]
    miss = float(gammaincc(j, edges[-1])) + abs(float(weights.sum()) - 1.0)
    return nodes, weights, _times_sup(sup_g, miss)


_AVERAGE_ROWS = 128  # points r averaged per call of the symbol; bounds the (points x nodes) array


def _average(evaluate, r: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """E[g(sqrt(r + G))] at each r, where evaluate(x) = g(x) on an array."""
    out = []
    for start in range(0, len(r), _AVERAGE_ROWS):
        x = np.sqrt(r[start : start + _AVERAGE_ROWS, None] + nodes[None, :])
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

    def base(x):
        return eval_symbol(sym, x)

    averaged = CallableSymbol(
        lambda x: _average(base, np.asarray(x, dtype=float) ** 2, nodes, weights),
        sup_bound=sup_g,
    )
    if has_closed_form(sym):
        lefts = closed_form_sequence(*_closed_form_params(sym), n_max + j).values[j:].tolist()
    else:
        lefts = [res.value for res in _quadrature_records(sym, range(j, n_max + j + 1), cfg)]
    rights = _quadrature_records(averaged, range(n_max + 1), cfg, rule_err)
    return max(abs(left - right.value) for left, right in zip(lefts, rights))
