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
error of at most about 2n roundings.  `gamma_closed_form` stays the exact
rational oracle, and the single-index float functions evaluate each term by
big-integer division.
Everything else goes through quadrature against the normalized weight
w_n(r) = exp(n ln r - r - lgamma(n + 1)), a probability density peaked at
r = n with width sqrt(n + 1).  The quadrature window is centered on the
peak, widened until the analytic out-of-window mass (incomplete gamma) is
negligible, and refined adaptively with a Gauss-Kronrod 7/15 rule; the
out-of-window mass times the symbol bound is folded into the reported
error estimate.

The module also hosts the exponential averaging operators: level 0 is
g(sqrt(r)) and each further level integrates the previous one against the
unit-mass kernel e^{r-u} on [r, oo).  Averaging at level j realizes the
j-fold left shift of gamma_g at the symbol level, which
`shifted_gamma_residual` checks numerically.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lgamma
from typing import NamedTuple, Union

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammainc, gammaincc

try:
    import mpmath as _mp
except ImportError:  # pragma: no cover - mpmath ships with the standard stack
    _mp = None

from .laguerre import _check_index
from .symbols import (
    CallableSymbol,
    ComboSymbol,
    ConstantSymbol,
    LaguerreGaussianSymbol,
    OffsetComboSymbol,
    Symbol,
    _check_scale,
    describe_symbol,
    eval_symbol,
    sup_estimate,
)

__all__ = [
    "ClosedForm",
    "ClosedSequence",
    "EigenSeq",
    "EngineTag",
    "QuadConfig",
    "QuadResult",
    "Quadrature",
    "averaging_operator",
    "closed_form_sequence",
    "gamma_closed_form",
    "gamma_closed_form_float",
    "gamma_combo_closed_form",
    "gamma_for_symbol_closed",
    "gamma_quadrature",
    "gamma_sequence",
    "has_closed_form",
    "shifted_gamma_residual",
]


# ---------------------------------------------------------------------------
# Closed forms

def gamma_closed_form(m: int, xi: int, n: int) -> Fraction:
    """Exact eigenvalue of the Laguerre-Gaussian symbol: 0 for n < m, else binom(n, m) / xi^(n-m)."""
    m = _check_index(m)
    n = _check_index(n, "n")
    xi = _check_scale(xi)
    if n < m:
        return Fraction(0)
    return Fraction(comb(n, m), xi ** (n - m))


def gamma_closed_form_float(m: int, xi: int, n: int) -> float:
    """Float mirror of `gamma_closed_form` (correctly rounded; underflows to 0)."""
    if n < m:
        return 0.0
    return comb(n, m) / (xi ** (n - m))


def gamma_combo_closed_form(coeffs, xi: int, p, n: int) -> complex:
    """Eigenvalue of sum_k coeffs[k] * basic(k, xi) plus the constant p, by linearity."""
    n = _check_index(n, "n")
    xi = _check_scale(xi)
    total = complex(p)
    for k, c in enumerate(coeffs):
        c = complex(c)
        if c != 0:
            total += c * gamma_closed_form_float(k, xi, n)
    return total


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
    return isinstance(
        sym, (ConstantSymbol, LaguerreGaussianSymbol, ComboSymbol, OffsetComboSymbol)
    )


def _closed_form_params(sym: Symbol) -> tuple[tuple, int, complex]:
    """(coefficients, xi, p) of a structured symbol as a combination plus a constant."""
    if isinstance(sym, ConstantSymbol):
        return (), 2, sym.value  # no terms, so the scale is never used
    if isinstance(sym, LaguerreGaussianSymbol):
        return (0.0,) * sym.m + (1.0,), sym.xi, 0j
    if isinstance(sym, ComboSymbol):
        return sym.coefficients, sym.xi, 0j
    if isinstance(sym, OffsetComboSymbol):
        return sym.combo.coefficients, sym.combo.xi, sym.p
    raise ValueError(f"no closed form for {describe_symbol(sym)}")


def gamma_for_symbol_closed(sym: Symbol, n: int) -> complex:
    """Closed-form eigenvalue for structured symbols."""
    return gamma_combo_closed_form(*_closed_form_params(sym), n)


# ---------------------------------------------------------------------------
# Quadrature configuration and results

@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-10
    peak_window_sigmas: float = 14.0
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")
        if not self.peak_window_sigmas >= 6.0:
            raise ValueError("peak_window_sigmas must be >= 6")
        if self.max_subdivisions < 0:
            raise ValueError("max_subdivisions must be nonnegative")


@dataclass(frozen=True)
class QuadResult:
    value: complex
    est_abs_err: float
    converged: bool
    subdivisions: int


@dataclass(frozen=True)
class ClosedForm:
    pass


@dataclass(frozen=True)
class Quadrature:
    est_abs_err: float
    converged: bool = True


EngineTag = Union[ClosedForm, Quadrature]


@dataclass
class EigenSeq:
    """A window of gamma values with per-entry engine provenance."""

    values: list[complex]
    engines: list[EngineTag]
    symbol_descr: str

    def __len__(self) -> int:
        return len(self.values)

    @property
    def converged(self) -> bool:
        return all(
            tag.converged for tag in self.engines if isinstance(tag, Quadrature)
        )


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 panel rule (QUADPACK dqk15 constants)

_XGK_POS = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
    ]
)
_WGK_POS = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
    ]
)
_WGK_ZERO = 0.209482141084728
_WG_POS = np.array([0.129484966168870, 0.279705391489277, 0.381830050505119])
_WG_ZERO = 0.417959183673469

_XGK = np.concatenate([-_XGK_POS, [0.0], _XGK_POS[::-1]])
_WGK = np.concatenate([_WGK_POS, [_WGK_ZERO], _WGK_POS[::-1]])
# the embedded Gauss-7 nodes are the odd-indexed Kronrod abscissae
_WG7 = np.concatenate([_WG_POS, [_WG_ZERO], _WG_POS[::-1]])

_ERR_FLOOR = 1.1e-14  # ~50 ulp of the panel's absolute integral


def _gk15_batch(f, a: np.ndarray, b: np.ndarray):
    """Gauss-Kronrod 7/15 on a batch of panels.

    Returns (values, error estimates, absolute integrals), one entry per
    panel.  All panel nodes are evaluated in a single call to f.
    """
    half = 0.5 * (b - a)
    center = 0.5 * (a + b)
    nodes = center[:, None] + half[:, None] * _XGK[None, :]
    fx = np.atleast_2d(f(nodes.ravel())).reshape(nodes.shape)
    resk = half * (fx @ _WGK)
    resg = half * (fx[:, 1::2] @ _WG7)
    mean = (resk / (b - a))[:, None]
    resabs = half * (np.abs(fx) @ _WGK)
    resasc = half * (np.abs(fx - mean) @ _WGK)
    diff = np.abs(resk - resg)
    safe = np.where(resasc > 0.0, resasc, 1.0)
    err = np.where(
        resasc > 0.0,
        resasc * np.minimum(1.0, (200.0 * diff / safe) ** 1.5),
        diff,
    )
    return resk, np.maximum(err, _ERR_FLOOR * resabs), resabs


def _leggauss_longdouble(order: int = 16):
    """Gauss-Legendre nodes and weights in extended precision.

    Newton iteration on the Legendre recurrence, carried out in longdouble,
    so the rule itself does not reintroduce double-precision noise.
    """
    k = np.arange(order, dtype=np.longdouble)
    x = np.cos(np.pi * (k + 0.75) / (order + 0.5)).astype(np.longdouble)
    eps = float(np.finfo(np.longdouble).eps)
    for _ in range(100):
        p_prev = np.ones_like(x)
        p_cur = x.copy()
        for j in range(2, order + 1):
            p_prev, p_cur = p_cur, ((2 * j - 1) * x * p_cur - (j - 1) * p_prev) / j
        deriv = order * (x * p_cur - p_prev) / (x * x - 1.0)
        step = p_cur / deriv
        x = x - step
        if float(np.max(np.abs(step))) < 4.0 * eps:
            break
    p_prev = np.ones_like(x)
    p_cur = x.copy()
    for j in range(2, order + 1):
        p_prev, p_cur = p_cur, ((2 * j - 1) * x * p_cur - (j - 1) * p_prev) / j
    deriv = order * (x * p_cur - p_prev) / (x * x - 1.0)
    weights = 2.0 / ((1.0 - x * x) * deriv * deriv)
    return x, weights


_GL_LD: tuple[np.ndarray, np.ndarray] | None = None


def _gl_longdouble_total(f, a: np.ndarray, b: np.ndarray):
    """Sum of panel integrals in extended precision (Gauss-Legendre 16).

    Used as a second pass when double precision cannot certify the requested
    tolerance, which happens for strongly cancelling integrands: the value is
    then limited by roundoff at the scale of the absolute integral, and the
    extended-precision pass pushes that floor down by roughly three orders.
    Every settled panel is bisected once more here: the adaptive loop stops
    refining at the double-precision estimator floor, and one extra halving
    drives the remaining rule truncation far below the roundoff floor.
    """
    global _GL_LD
    if _GL_LD is None:
        _GL_LD = _leggauss_longdouble()
    xs, ws = _GL_LD
    mids = 0.5 * (a + b)
    a2 = np.concatenate([a, mids]).astype(np.longdouble)
    b2 = np.concatenate([mids, b]).astype(np.longdouble)
    half = 0.5 * (b2 - a2)
    center = 0.5 * (a2 + b2)
    nodes = center[:, None] + half[:, None] * xs[None, :]
    fx = np.atleast_2d(f(nodes.ravel())).reshape(nodes.shape)
    panel_vals = (fx * ws[None, :]).sum(axis=1) * half
    return complex(panel_vals.sum())


# error floor of the extended-precision pass per unit of absolute integral:
# ~eps_longdouble times the typical log-scale magnitude inside the integrand
_LD_NOISE = 1e-17

_MP_DPS = 30
_MP_GL_CACHE: dict[int, tuple[list, list]] = {}


def _mp_leggauss(order: int = 24):
    """Gauss-Legendre nodes and weights as mpmath numbers (cached)."""
    if order in _MP_GL_CACHE:
        return _MP_GL_CACHE[order]
    xs = []
    for k in range(order):
        x = _mp.mpf(math.cos(math.pi * (k + 0.75) / (order + 0.5)))
        for _ in range(60):
            p_prev, p_cur = _mp.mpf(1), x
            for j in range(2, order + 1):
                p_prev, p_cur = p_cur, ((2 * j - 1) * x * p_cur - (j - 1) * p_prev) / j
            deriv = order * (x * p_cur - p_prev) / (x * x - 1)
            step = p_cur / deriv
            x -= step
            if abs(step) < _mp.mpf(10) ** (-_MP_DPS - 4):
                break
        xs.append(x)
    ws = []
    for x in xs:
        p_prev, p_cur = _mp.mpf(1), x
        for j in range(2, order + 1):
            p_prev, p_cur = p_cur, ((2 * j - 1) * x * p_cur - (j - 1) * p_prev) / j
        deriv = order * (x * p_cur - p_prev) / (x * x - 1)
        ws.append(2 / ((1 - x * x) * deriv * deriv))
    _MP_GL_CACHE[order] = (xs, ws)
    return xs, ws


def _mp_scalar(z: complex):
    z = complex(z)
    if z.imag == 0.0:
        return _mp.mpf(z.real)
    return _mp.mpc(z.real, z.imag)


def _mp_symbol_value(sym: Symbol, r):
    """g(sqrt(r)) as an mpmath number; only structured symbols are supported."""
    if isinstance(sym, ConstantSymbol):
        return _mp_scalar(sym.value)
    if isinstance(sym, LaguerreGaussianSymbol):
        t = sym.xi * r
        p_prev, p_cur = _mp.mpf(1), 1 - t
        for k in range(1, sym.m):
            p_prev, p_cur = p_cur, ((2 * k + 1 - t) * p_cur - k * p_prev) / (k + 1)
        lag = p_cur if sym.m else p_prev
        sign = -1 if sym.m % 2 else 1
        return sign * _mp.mpf(sym.xi) ** (sym.m + 1) * _mp.e ** (-(sym.xi - 1) * r) * lag
    if isinstance(sym, OffsetComboSymbol):
        return _mp_symbol_value(sym.combo, r) + _mp_scalar(sym.p)
    if isinstance(sym, ComboSymbol):
        t = sym.xi * r
        total = _mp.mpf(0)
        p_prev, p_cur = _mp.mpf(1), 1 - t
        for k, c in enumerate(sym.coefficients):
            lag = p_prev if k == 0 else p_cur
            if c != 0:
                sign = -1 if k % 2 else 1
                total += _mp_scalar(c) * sign * _mp.mpf(sym.xi) ** (k + 1) * lag
            if k >= 1:
                j = k
                p_prev, p_cur = p_cur, ((2 * j + 1 - t) * p_cur - j * p_prev) / (j + 1)
        return total * _mp.e ** (-(sym.xi - 1) * r)
    raise TypeError(f"no arbitrary-precision evaluation for {describe_symbol(sym)}")


def _mp_refine_total(sym: Symbol, n: int, a: np.ndarray, b: np.ndarray):
    """Arbitrary-precision integral over the settled panels (each bisected once).

    Returns None when mpmath is unavailable or the symbol is a black-box
    callable.  Runs only for the handful of integrals whose cancellation
    exceeds even the extended-precision floor.
    """
    if _mp is None or isinstance(sym, CallableSymbol):
        return None
    mids = 0.5 * (a + b)
    a2 = np.concatenate([a, mids])
    b2 = np.concatenate([mids, b])
    with _mp.workdps(_MP_DPS):
        xs, ws = _mp_leggauss()
        fact = _mp.factorial(n)
        total = _mp.mpf(0)
        for lo, hi in zip(a2, b2):
            lo_mp, hi_mp = _mp.mpf(float(lo)), _mp.mpf(float(hi))
            half = (hi_mp - lo_mp) / 2
            center = (hi_mp + lo_mp) / 2
            panel = _mp.mpf(0)
            for x, w in zip(xs, ws):
                r = center + half * x
                weight = r**n * _mp.e ** (-r) / fact
                panel += w * _mp_symbol_value(sym, r) * weight
            total += half * panel
        return complex(total)


def _adaptive_gk(f, edges: np.ndarray, cfg: QuadConfig):
    """Globally adaptive bisection over the panels delimited by `edges`.

    Each round splits every panel whose error exceeds its share of the
    tolerance, skipping panels already at their roundoff floor (splitting
    cannot improve those).  Rounds are batched so the integrand is called a
    handful of times per integral; the procedure is deterministic.
    """
    a = np.asarray(edges[:-1], dtype=float)
    b = np.asarray(edges[1:], dtype=float)
    vals, errs, resabs = _gk15_batch(f, a, b)
    splits = 0
    while True:
        total = vals.sum()
        total_err = float(errs.sum())
        tol = cfg.rel_tol * max(abs(total), 1e-300)
        if total_err <= tol or splits >= cfg.max_subdivisions:
            break
        share = tol / (2.0 * len(a))
        width_ok = (b - a) > 1e-15 * np.maximum(np.abs(b), 1.0)
        mask = (errs > share) & (errs > 4.0 * _ERR_FLOOR * resabs) & width_ok
        if not mask.any():
            break
        idx = np.nonzero(mask)[0]
        if splits + len(idx) > cfg.max_subdivisions:
            keep_n = cfg.max_subdivisions - splits
            order = np.lexsort((a[idx], -errs[idx]))
            idx = idx[order][:keep_n]
        splits += len(idx)
        mid = 0.5 * (a[idx] + b[idx])
        child_a = np.concatenate([a[idx], mid])
        child_b = np.concatenate([mid, b[idx]])
        child_vals, child_errs, child_abs = _gk15_batch(f, child_a, child_b)
        keep = np.ones(len(a), dtype=bool)
        keep[idx] = False
        a = np.concatenate([a[keep], child_a])
        b = np.concatenate([b[keep], child_b])
        vals = np.concatenate([vals[keep], child_vals])
        errs = np.concatenate([errs[keep], child_errs])
        resabs = np.concatenate([resabs[keep], child_abs])
    total = vals.sum()
    total_err = float(errs.sum())
    tol = cfg.rel_tol * max(abs(total), 1e-300)
    return total, total_err, total_err <= tol, splits, a, b, float(resabs.sum())


# ---------------------------------------------------------------------------
# The normalized weight and the quadrature driver

def _weight(n: int, r: np.ndarray) -> np.ndarray:
    """w_n(r) = exp(n ln r - r - lgamma(n + 1)); integrates to 1 on [0, oo).

    The float dtype of r is preserved so the extended-precision pass keeps
    its accuracy through the weight factor.
    """
    r = np.asarray(r)
    if r.dtype.kind != "f":
        r = r.astype(float)
    out = np.zeros_like(r)
    pos = r > 0.0
    out[pos] = np.exp(n * np.log(r[pos]) - r[pos] - lgamma(n + 1))
    if n == 0:
        out[~pos] = 1.0
    return out


def _symbol_scale(sym: Symbol) -> int | None:
    if isinstance(sym, LaguerreGaussianSymbol):
        return sym.xi
    if isinstance(sym, ComboSymbol):
        return sym.xi
    if isinstance(sym, OffsetComboSymbol):
        return sym.combo.xi
    return None


def _panel_edges(sym: Symbol, n: int, lo: float, hi: float) -> np.ndarray:
    """Initial panel boundaries clustered around every plausible mass peak.

    The bare weight peaks at r = n; a symbol carrying the Gaussian factor
    exp(-(xi-1) x^2) shifts the effective peak of the integrand to r = n/xi.
    Seeding boundaries around both keeps the adaptive refinement from ever
    missing a narrow peak inside a wide panel.
    """
    sigma = math.sqrt(n + 1.0)
    centers = [(float(n), sigma)]
    xi = _symbol_scale(sym)
    if xi is not None:
        centers.append((n / xi, sigma / xi))
    pts = {lo, hi}
    for center, width in centers:
        for k in (0.0, 1.0, 2.0, 4.0, 8.0, 16.0):
            for p in (center - k * width, center + k * width):
                if lo < p < hi:
                    pts.add(p)
    edges = sorted(pts)
    # cap panel width so the window starts with a reasonable resolution
    max_width = (hi - lo) / 8.0
    refined = [edges[0]]
    for right in edges[1:]:
        left = refined[-1]
        gap = right - left
        if gap > max_width:
            pieces = int(math.ceil(gap / max_width))
            refined.extend(left + gap * i / pieces for i in range(1, pieces))
        refined.append(right)
    return np.array(refined)


def gamma_quadrature(sym: Symbol, n: int, cfg: QuadConfig | None = None) -> QuadResult:
    """gamma(n) for an arbitrary bounded symbol, by adaptive quadrature.

    The returned error estimate adds the analytic out-of-window bound
    sup|g| * (mass below the window + mass above it) to the accumulated
    panel estimates.  `converged` certifies the estimate against rel_tol at
    the symbol's own scale (the weight has unit mass, so sup|g| bounds every
    eigenvalue); when certification fails the best value is still returned
    with the honest estimate.

    Structured symbols whose integrand cancels below the double-precision
    floor are recomputed on the settled panels in extended precision, and in
    arbitrary precision when even that floor is too coarse; the estimate is
    left untouched (an overestimate stays honest).
    """
    cfg = cfg or QuadConfig()
    n = _check_index(n, "n")
    sup_g = sup_estimate(sym)
    sigma = math.sqrt(n + 1.0)
    lo = max(0.0, n - cfg.peak_window_sigmas * sigma)
    hi = n + cfg.peak_window_sigmas * sigma
    mass_target = 0.05 * cfg.rel_tol
    # widen until the weight mass outside [lo, hi] is negligible; for small n
    # the right tail of the weight is fat and needs more than the sigma rule
    for _ in range(200):
        if lo <= 0.0 or float(gammainc(n + 1, lo)) <= mass_target:
            break
        lo = max(0.0, lo - 2.0 * sigma)
    for _ in range(200):
        if float(gammaincc(n + 1, hi)) <= mass_target:
            break
        hi += 2.0 * sigma
    tail_bound = sup_g * float(gammainc(n + 1, lo) + gammaincc(n + 1, hi))

    def integrand(r):
        return eval_symbol(sym, np.sqrt(r)) * _weight(n, r)

    edges = _panel_edges(sym, n, lo, hi)
    value, err, strict_ok, splits, fin_a, fin_b, resabs = _adaptive_gk(
        integrand, edges, cfg
    )
    if not strict_ok and not isinstance(sym, CallableSymbol):
        # the value itself is cancellation-limited; escalate precision on the
        # settled panels (black-box callables stay in float64: their own
        # evaluators would reintroduce the noise)
        value = _gl_longdouble_total(integrand, fin_a, fin_b)
        if _LD_NOISE * resabs > 0.1 * cfg.rel_tol * max(1.0, abs(value)):
            refined = _mp_refine_total(sym, n, fin_a, fin_b)
            if refined is not None:
                value = refined
    converged = err <= cfg.rel_tol * max(abs(value), sup_g, 1e-300)
    return QuadResult(complex(value), float(err + tail_bound), converged, splits)


def gamma_sequence(
    sym: Symbol,
    n_max: int,
    cfg: QuadConfig | None = None,
    engine: str = "auto",
    max_workers: int | None = None,
) -> EigenSeq:
    """gamma(0..n_max) with per-entry engine tags.

    engine="auto" uses the closed form whenever the symbol admits one,
    "closed" insists on it, "quad" forces quadrature.  Quadrature entries are
    independent integrals and may be evaluated by a thread pool; the output
    order is by n regardless.
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
        engines: list[EngineTag] = [ClosedForm() for _ in values]
        return EigenSeq(values, engines, describe_symbol(sym))
    cfg = cfg or QuadConfig()
    indices = range(n_max + 1)
    if max_workers and max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(lambda n: gamma_quadrature(sym, n, cfg), indices))
    else:
        results = [gamma_quadrature(sym, n, cfg) for n in indices]
    values = [res.value for res in results]
    engines = [Quadrature(res.est_abs_err, res.converged) for res in results]
    return EigenSeq(values, engines, describe_symbol(sym))


# ---------------------------------------------------------------------------
# Exponential averaging operators

def _vector_callable(g):
    """Wrap a scalar-or-vector callable so it always maps arrays to arrays."""

    def call(x: np.ndarray) -> np.ndarray:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                out = np.asarray(g(x))
            if out.shape != x.shape:
                raise TypeError("shape mismatch")
            return out
        except (TypeError, ValueError, DeprecationWarning):
            return np.asarray([g(float(t)) for t in x])

    return call


def _averaging_grid(sup_g: float, rel_tol: float, order: int = 10, panel_width: float = 2.5):
    """Composite Gauss-Legendre nodes for s in [0, T] with kernel e^{-s}.

    T is the truncation horizon: past it the unit-mass kernel leaves at most
    e^{-T} * sup|g|, held below rel_tol.  Ten nodes per width-2.5 panel keep
    the panel error of these smooth integrands near machine precision.
    """
    horizon = math.log(max(sup_g, 1e-12) / rel_tol) + 2.0
    horizon = min(max(horizon, 15.0), 60.0)
    n_panels = max(4, int(math.ceil(horizon / panel_width)))
    base_x, base_w = leggauss(order)
    edges = np.linspace(0.0, horizon, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights * np.exp(-nodes)


_FANOUT_LIMIT = 5_000_000


def _averaged_values(g_vec, level: int, r: np.ndarray, nodes, kernel) -> np.ndarray:
    """Level-j averaged values at the points r (vectorized recursion)."""
    if level == 0:
        return g_vec(np.sqrt(r))
    if r.size * nodes.size <= _FANOUT_LIMIT:
        grid = (r[:, None] + nodes[None, :]).ravel()
        vals = _averaged_values(g_vec, level - 1, grid, nodes, kernel)
        return vals.reshape(r.size, nodes.size) @ kernel
    acc = None
    for u, w in zip(nodes, kernel):
        part = _averaged_values(g_vec, level - 1, r + u, nodes, kernel) * w
        acc = part if acc is None else acc + part
    return acc


def _probe_sup(g_vec, r_hi: float) -> float:
    grid = np.linspace(0.0, math.sqrt(r_hi), 257)
    return float(np.max(np.abs(g_vec(grid))))


def averaging_operator(g, j: int, r: float, cfg: QuadConfig | None = None, sup_hint: float | None = None):
    """Level-j exponential average of g, evaluated at r >= 0.

    Level 0 is g(sqrt(r)); level j integrates the previous level against the
    unit-mass kernel e^{r-u} over [r, oo), truncated at a horizon past which
    the kernel tail times the (probed or hinted) bound of g is below rel_tol.
    """
    cfg = cfg or QuadConfig()
    j = _check_index(j, "j")
    if r < 0.0 or not math.isfinite(r):
        raise ValueError("r must be finite and nonnegative")
    g_vec = _vector_callable(g)
    if j == 0:
        return complex(g_vec(np.sqrt(np.array([float(r)])))[0])
    sup_g = sup_hint if sup_hint is not None else _probe_sup(g_vec, r + 70.0)
    nodes, kernel = _averaging_grid(sup_g, cfg.rel_tol)
    out = _averaged_values(g_vec, j, np.array([float(r)]), nodes, kernel)[0]
    return complex(out)


def shifted_gamma_residual(sym: Symbol, j: int, n_max: int, cfg: QuadConfig | None = None) -> float:
    """Max over n <= n_max of |gamma(n + j) - gamma-of-level-j-average(n)|.

    The left side uses the closed form when available (quadrature otherwise);
    the right side always evaluates the nested averaging integrals inside the
    quadrature, so the identity is checked across genuinely different paths.
    """
    cfg = cfg or QuadConfig()
    j = _check_index(j, "j")
    if j < 1:
        raise ValueError("shift order j must be >= 1")
    n_max = _check_index(n_max, "n_max")
    g_vec = _vector_callable(lambda x: eval_symbol(sym, x))
    sup_g = sup_estimate(sym)
    nodes, kernel = _averaging_grid(sup_g, cfg.rel_tol)
    averaged = CallableSymbol(
        lambda x: _averaged_values(g_vec, j, np.asarray(x, dtype=float) ** 2, nodes, kernel),
        sup_bound=sup_g,
    )
    if has_closed_form(sym):
        lefts = closed_form_sequence(*_closed_form_params(sym), n_max + j).values[j:].tolist()
    else:
        lefts = [gamma_quadrature(sym, n + j, cfg).value for n in range(n_max + 1)]
    worst = 0.0
    for n, left in enumerate(lefts):
        right = gamma_quadrature(averaged, n, cfg).value
        worst = max(worst, abs(left - right))
    return worst
