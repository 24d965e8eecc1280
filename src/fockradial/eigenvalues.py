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
w_n(r) = exp(n ln r - r - lgamma(n + 1)), a probability density peaked at
r = n with width sqrt(n + 1).  The quadrature window is centered on the
peak and reaches, by the inverse incomplete gamma function, to where the
weight mass outside it times the symbol bound sup|g| is below rel_tol / 10;
that product is folded into the reported error estimate.  The window is
refined adaptively with a Gauss-Kronrod 7/15 rule.  Every decision tests
tau(v) = rel_tol * max(1, |v|).  When float64 misses tau on a structured
symbol, the same adaptive loop reruns from the settled panels in longdouble,
then in mpmath, each pass to tau / 10 and with an error that is its own
Gauss-Kronrod estimate, floored at 100 eps of its number type; the first pass
that meets tau / 10 ends it.  Callables stay in float64.

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
checks numerically.
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

from .laguerre import _as_float_array, _check_index, _check_positive, _laguerre_rows
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

    def tolerance(self, value) -> float:
        """tau(value) = rel_tol * max(1, |value|), the one tolerance of the quadrature."""
        return self.rel_tol * max(1.0, float(abs(value)))


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
    with _mp.workdps(_MP_DPS):
        return np.array([_mp.mpf(v) for v in values], dtype=object)


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


def _gk15_batch(f, rule, a: np.ndarray, b: np.ndarray, floor: float):
    """Gauss-Kronrod 7/15 on a batch of panels, in the number type of the rule and the panels.

    Returns (values, error estimates, absolute integrals), one entry per
    panel; no estimate is below floor times the panel's absolute integral.
    All panel nodes are evaluated in a single call to f.
    """
    xgk, wgk, wg7 = rule
    half = 0.5 * (b - a)
    center = 0.5 * (a + b)
    nodes = center[:, None] + half[:, None] * xgk[None, :]
    fx = np.atleast_2d(f(nodes.ravel())).reshape(nodes.shape)
    resk = half * (fx @ wgk)
    resg = half * (fx[:, 1::2] @ wg7)
    mean = (resk / (b - a))[:, None]
    resabs = half * (np.abs(fx) @ wgk)
    resasc = half * (np.abs(fx - mean) @ wgk)
    diff = np.abs(resk - resg)
    safe = np.where(resasc > 0.0, resasc, 1.0)
    err = np.where(resasc > 0.0, resasc * np.minimum(1.0, (200.0 * diff / safe) ** 1.5), diff)
    return resk, np.maximum(err, floor * resabs), resabs


def _adaptive_gk(f, convert, a, b, cfg: QuadConfig, floor: float, reach: float):
    """Globally adaptive bisection of the panels [a, b], in the number type convert makes.

    Until the summed error is within tau(total), each round splits every panel
    whose error exceeds its share of tau, skipping panels already at their
    roundoff floor (splitting cannot improve those).  Splitting stops once
    reach, the floor of the finest pass there is, times the absolute integral
    exceeds tau: no pass can then meet it.  Rounds are batched, so the
    integrand is called a handful of times per integral.  `settled` is False
    if the budget ran out while a panel still needed a split.
    """
    rule = _gk15_rule(convert)
    a, b = convert(a), convert(b)
    vals, errs, resabs = _gk15_batch(f, rule, a, b, floor)
    splits, settled = 0, True
    while True:
        total = vals.sum()
        total_err = float(errs.sum())
        tol = cfg.tolerance(total)
        if total_err <= tol or reach * float(resabs.sum()) > tol:
            break
        share = tol / (2.0 * len(a))
        width_ok = (b - a) > 1e-15 * np.maximum(np.abs(b), 1.0)
        mask = (errs > share) & (errs > 4.0 * floor * resabs) & width_ok
        if not mask.any():
            break
        if splits >= cfg.max_subdivisions:
            settled = False
            break
        idx = np.nonzero(mask)[0]
        if splits + len(idx) > cfg.max_subdivisions:
            idx = idx[np.lexsort((a[idx], -errs[idx]))][: cfg.max_subdivisions - splits]
        splits += len(idx)
        mid = 0.5 * (a[idx] + b[idx])
        child_a = np.concatenate([a[idx], mid])
        child_b = np.concatenate([mid, b[idx]])
        child_vals, child_errs, child_abs = _gk15_batch(f, rule, child_a, child_b, floor)
        keep = np.ones(len(a), dtype=bool)
        keep[idx] = False
        a = np.concatenate([a[keep], child_a])
        b = np.concatenate([b[keep], child_b])
        vals = np.concatenate([vals[keep], child_vals])
        errs = np.concatenate([errs[keep], child_errs])
        resabs = np.concatenate([resabs[keep], child_abs])
    return total, total_err, settled, splits, a, b


# ---------------------------------------------------------------------------
# Extended-precision passes

def _mp_scalar(z: complex):
    z = complex(z)
    return _mp.mpf(z.real) if z.imag == 0.0 else _mp.mpc(z.real, z.imag)


def _mp_integrand(sym: LaguerreCombo, n: int):
    """r -> g(sqrt(r)) r^n e^-r / n! on an object array of mpmath nodes.

    The term factors c_k (-1)^k xi^(k+1) are formed once, at the working
    precision, and each call runs the Laguerre recurrence once over all nodes.
    """
    coeffs = sym.coefficients
    last = max((k for k, c in enumerate(coeffs) if c), default=-1)
    mp_xi = _mp.mpf(sym.xi)
    factors = [
        _mp_scalar(c) * (-1 if k % 2 else 1) * mp_xi ** (k + 1) if c else None
        for k, c in enumerate(coeffs[: last + 1])
    ]
    offset = _mp_scalar(sym.offset)
    fact = _mp.factorial(n)

    def integrand(r):
        total = _mp.mpf(0)
        for factor, lag in zip(factors, _laguerre_rows(last, sym.xi * r)):
            if factor is not None:
                total = total + factor * lag
        value = total * _mp.e ** (-(sym.xi - 1) * r) + offset
        return value * r**n * _mp.e ** (-r) / fact

    return integrand


def _extended_passes(sym: Symbol, n: int, integrand):
    """The passes past float64, in order: (convert, integrand, floor of its GK estimates).

    longdouble (the platform's type), then mpmath at _MP_DPS digits.  The floor,
    100 eps of the type per unit of absolute integral, is the pass's roundoff at
    the integrand's typical log-scale magnitude.  Callables get none (float64).
    """
    if isinstance(sym, CallableSymbol):
        return
    yield _to_longdouble, integrand, 100.0 * float(np.finfo(_to_longdouble(0.0).dtype).eps)
    yield _to_mpf, _mp_integrand(sym, n), _MP_FLOOR


# ---------------------------------------------------------------------------
# The normalized weight and the quadrature driver

_PEAK_WINDOW_SIGMAS = 14.0  # smallest half-width of the window, in units of sqrt(n + 1)


def _weight(n: int, r: np.ndarray) -> np.ndarray:
    """w_n(r) = exp(n ln r - r - lgamma(n + 1)); integrates to 1 on [0, oo).

    The float dtype of r is preserved so the extended-precision pass keeps
    its accuracy through the weight factor.
    """
    r = _as_float_array(r)
    out = np.zeros_like(r)
    pos = r > 0.0
    out[pos] = np.exp(n * np.log(r[pos]) - r[pos] - lgamma(n + 1))
    if n == 0:
        out[~pos] = 1.0
    return out


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


def _panel_edges(sym: Symbol, n: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Initial panels (left ends, right ends), clustered around every plausible mass peak.

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
    return np.array(refined[:-1]), np.array(refined[1:])


def gamma_quadrature(sym: Symbol, n: int, cfg: QuadConfig | None = None) -> Eigenvalue:
    """gamma(n) for an arbitrary bounded symbol, by adaptive quadrature.

    Every decision tests tau(v) = rel_tol * max(1, |v|) (`QuadConfig.tolerance`),
    absolute below unit size.  The float64 panel estimates, each at least its
    panel's roundoff floor, sum to the error err.  If err > tau(value) on a
    structured symbol whose panels all settled within the subdivision budget,
    each extended pass reruns `_adaptive_gk` from them in its number type, to
    tau / 10 and with the rest of the budget, up to the first pass that meets
    it; `subdivisions` counts the splits of every pass.
    The window leaves weight mass 0.05 * rel_tol / max(1, sup|g|) or less on
    each side, so the out-of-window bound sup|g| * (mass outside) is at most
    rel_tol / 10 for a finite sup|g|.  The record's `converged` is
    err <= tau(value); its `est_abs_err` is err plus that bound plus the
    subnormal roundoff, which no relative floor covers (`_underflow_bound`).
    """
    cfg = cfg or QuadConfig()
    n = _check_index(n, "n")
    sigma = math.sqrt(n + 1.0)
    sup_g = sup_estimate(sym)
    # the floor keeps the window finite when sup|g| is inf
    mass_target = max(0.05 * cfg.rel_tol / max(1.0, sup_g), np.finfo(float).tiny)
    lo = max(0.0, min(n - _PEAK_WINDOW_SIGMAS * sigma, float(gammaincinv(n + 1, mass_target))))
    hi = max(n + _PEAK_WINDOW_SIGMAS * sigma, float(gammainccinv(n + 1, mass_target)))
    tail_bound = sup_g * float(gammainc(n + 1, lo) + gammaincc(n + 1, hi))

    def integrand(r):
        return eval_symbol(sym, np.sqrt(r)) * _weight(n, r)

    # the weight's exponent rounds at the scale of lgamma(n + 2)
    floor = _ERR_FLOOR + float(np.finfo(float).eps) * lgamma(n + 2)
    reach = floor if isinstance(sym, CallableSymbol) else _MP_FLOOR
    value, err, settled, splits, fin_a, fin_b = _adaptive_gk(
        integrand, _to_float64, *_panel_edges(sym, n, lo, hi), cfg, floor, reach
    )
    if settled and err > cfg.tolerance(value):
        with _mp.workdps(_MP_DPS):
            for convert, pass_integrand, pass_floor in _extended_passes(sym, n, integrand):
                pass_cfg = QuadConfig(cfg.rel_tol / 10.0, cfg.max_subdivisions - splits)
                value, err, _, more, _, _ = _adaptive_gk(
                    pass_integrand, convert, fin_a, fin_b, pass_cfg, pass_floor, reach
                )
                splits += more
                if err <= pass_cfg.tolerance(value):
                    break
    est_abs_err = err + tail_bound + _underflow_bound(sym, sup_g, hi - lo, len(fin_a))
    converged = err <= cfg.tolerance(value)
    return Eigenvalue(complex(value), "quad", float(est_abs_err), converged, splits)


def gamma_sequence(
    sym: Symbol,
    n_max: int,
    cfg: QuadConfig | None = None,
    engine: str = "auto",
) -> EigenSeq:
    """gamma(0..n_max) as `Eigenvalue` records.

    engine="auto" uses the closed form whenever the symbol admits one,
    "closed" insists on it, "quad" forces quadrature, one integral per n.
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
    cfg = cfg or QuadConfig()
    return EigenSeq([gamma_quadrature(sym, n, cfg) for n in range(n_max + 1)])


# ---------------------------------------------------------------------------
# Exponential averaging and the shift identity

def _averaging_rule(j: int, sup_g: float, rel_tol: float, xi: int = 1):
    """Nodes and weights of E[f(G)], G ~ Gamma(j, 1), as a composite Gauss-Legendre rule.

    The horizon T leaves a Gamma(j, 1) tail mass below e^-2 * rel_tol /
    sup|g|, at least 15.  The first panel is 2.5 / xi wide, the decay length
    of a scale-xi symbol's Gaussian factor, and each panel is 1.5 times wider
    than the last, up to 2.5.  Ten nodes per panel keep the panel error of
    these smooth integrands near machine precision.
    """
    tail = min(1.0, rel_tol / max(sup_g, 1e-12)) * math.exp(-2.0)
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
    weights = (half[:, None] * base_w[None, :]).ravel()
    density = np.exp((j - 1) * np.log(nodes) - nodes - lgamma(j))
    return nodes, weights * density


def _average(evaluate, r: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """E[g(sqrt(r + G))] at each r, where evaluate(x) = g(x) on an array."""
    x = np.sqrt(r[:, None] + nodes[None, :])
    return evaluate(x.ravel()).reshape(x.shape) @ weights


def shifted_gamma_residual(sym: Symbol, j: int, n_max: int, cfg: QuadConfig | None = None) -> float:
    """Max over n <= n_max of |gamma(n + j) - gamma-of-level-j-average(n)|.

    The left side uses the closed form when available (quadrature otherwise);
    the right side evaluates the Gamma(j, 1) averaging integral inside the
    quadrature, so the identity is checked across genuinely different paths.
    """
    cfg = cfg or QuadConfig()
    j = _check_index(j, "j")
    if j < 1:
        raise ValueError("shift order j must be >= 1")
    n_max = _check_index(n_max, "n_max")
    sup_g = sup_estimate(sym)
    nodes, weights = _averaging_rule(j, sup_g, cfg.rel_tol, _symbol_scale(sym) or 1)

    def base(x):
        return eval_symbol(sym, x)

    averaged = CallableSymbol(
        lambda x: _average(base, np.asarray(x, dtype=float) ** 2, nodes, weights),
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
