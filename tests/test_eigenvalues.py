import cmath
import decimal
import functools
import math
import random
import time
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from exact import gamma_closed_form
from fockradial import eigenvalues, symbols
from fockradial.doubledouble import DD, LOG_BITS, log_fixed, to_dd, two_sum
from fockradial.doubledouble import _exp_constants as dd_exp_constants
from fockradial.doubledouble import _log2_fixed as dd_log2_fixed
from fockradial.doubledouble import exp as dd_exp
from fockradial.doubledouble import log as dd_log
from fockradial.eigenvalues import (
    QuadConfig,
    _average,
    _averaging_rule,
    closed_form_sequence,
    gamma_quadrature,
    gamma_sequence,
    has_closed_form,
    shifted_gamma_residual,
)
from fockradial.symbols import (
    CallableSymbol,
    LaguerreCombo,
    basic_symbol,
    combo_symbol,
    eval_symbol,
    sup_estimate,
    with_limit_offset,
)


# ---------------------------------------------------------------------------
# closed forms

def test_gamma_closed_form_examples():
    assert gamma_closed_form(2, 4, 1) == 0
    assert gamma_closed_form(1, 4, 3) == Fraction(3, 16)
    assert gamma_closed_form(0, 2, 5) == Fraction(1, 32)


def test_gamma_closed_form_float_matches_exact():
    # a one-term combination is the float closed form of basic(m, xi)
    for m in range(15):
        for xi in (2, 3, 4, 5, 7, 8, 10, 16):
            values = closed_form_sequence([0.0] * m + [1.0], xi, 0.0, 39).values
            for n, got in enumerate(values):
                exact = gamma_closed_form(m, xi, n)
                assert got == pytest.approx(float(exact), rel=1e-15, abs=0.0)


def test_gamma_combo_closed_form_examples():
    assert closed_form_sequence([1.0], 2, 0.0, 3).values[3] == pytest.approx(0.125)
    assert closed_form_sequence([], 2, 5.0, 17).values[17] == 5.0
    assert closed_form_sequence([1.0, -1.0], 2, 0.0, 1).values[1] == pytest.approx(-0.5)


_UNIT_ROUNDOFF = 2.0**-53
_SUBNORMAL = 2.0**-1074


def assert_engine_matches_exact(coeffs, xi, p, values, indices):
    """|engine(n) - exact(n)| <= (2n + N + 4) u (sum_k |c_k| a_k(n) + |p|), plus underflow slack."""
    coeffs = [complex(c) for c in coeffs]
    p = complex(p)
    for n in indices:
        terms = [gamma_closed_form(k, xi, n) for k in range(len(coeffs))]
        exact_re = sum(Fraction(c.real) * a for c, a in zip(coeffs, terms)) + Fraction(p.real)
        exact_im = sum(Fraction(c.imag) * a for c, a in zip(coeffs, terms)) + Fraction(p.imag)
        got = complex(values[n])
        err = math.hypot(
            float(Fraction(got.real) - exact_re), float(Fraction(got.imag) - exact_im)
        )
        scale = sum(abs(c) * float(a) for c, a in zip(coeffs, terms)) + abs(p)
        bound = (2 * n + len(coeffs) + 4) * _UNIT_ROUNDOFF * scale + 4 * _SUBNORMAL
        assert err <= bound, (n, err, bound)


_reals = st.floats(-10.0, 10.0, allow_nan=False)
_complexes = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
_offsets = st.one_of(
    st.floats(1e-3, 10.0).flatmap(lambda m: st.sampled_from((m, -m))),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=40, deadline=None)
@given(
    xi=st.integers(2, 10**7),
    coeffs=st.one_of(st.lists(_reals, max_size=60), st.lists(_complexes, max_size=60)),
    p=_offsets,
    n_max=st.integers(0, 400),
    picks=st.lists(st.integers(0, 400), max_size=6),
)
def test_closed_form_sequence_matches_exact_oracle(xi, coeffs, p, n_max, picks):
    seq = closed_form_sequence(coeffs, xi, p, n_max)
    assert seq.values.shape == (n_max + 1,)
    n_terms = len(coeffs)
    indices = {0, n_max, min(n_terms, n_max), min(n_terms + 1, n_max)}
    indices.update(k % (n_max + 1) for k in picks)
    assert_engine_matches_exact(coeffs, xi, p, seq.values, sorted(indices))
    # the value at n does not depend on how far the sequence runs
    n = max(indices - {n_max}, default=0)
    assert closed_form_sequence(coeffs, xi, p, n).values[n] == seq.values[n]


def test_closed_form_sequence_slow_decay_at_xi_two():
    # at xi = 2 the terms decay slowly, so roundoff accumulates over the
    # longest stretch of the recurrence; the tiny offset leaves the terms
    # dominant until about n = 750 and keeps the bound above the subnormal
    # roundoff once they underflow (past n = 1430)
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=60) + 1j * rng.normal(size=60)
    p = 1e-120
    seq = closed_form_sequence(coeffs, 2, p, 2000)
    assert_engine_matches_exact(coeffs, 2, p, seq.values, range(0, 2001, 40))
    # the tail step: a(n_max + 1), term by term
    n_max = 300
    next_terms = closed_form_sequence(coeffs, 2, p, n_max).next_terms
    for k, a in enumerate(next_terms):
        exact = gamma_closed_form(k, 2, n_max + 1)
        assert abs(Fraction(a) - exact) <= (2 * n_max + 4) * _UNIT_ROUNDOFF * exact


def _closed_form_loop(coeffs, xi: int, p, n_max: int):
    """(values, next_terms) by one vector step and one dot product per n: the engine before it went by blocks."""
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
    with np.errstate(over="ignore", invalid="ignore"):
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
    return values, terms


@settings(max_examples=60, deadline=None)
@given(
    n_terms=st.integers(0, 130),
    xi=st.integers(2, 2 * 10**6),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["real", "complex", "tiny", "huge"]),
    p=st.one_of(st.just(0.0), _offsets),
    n_max=st.sampled_from([0, 1, 254, 255, 256, 257, 511, 512, 513]),
)
@example(n_terms=130, xi=2, seed=0, kind="complex", p=0.5 - 0.25j, n_max=513)
@example(n_terms=130, xi=2 * 10**6, seed=1, kind="real", p=0.0, n_max=513)
@example(n_terms=0, xi=3, seed=0, kind="real", p=-2.0, n_max=257)
@example(n_terms=59, xi=2, seed=0, kind="huge", p=0.0, n_max=254)
def test_closed_form_sequence_matches_the_per_index_loop(n_terms, xi, seed, kind, p, n_max):
    # blocks of rows and one stacked matmul per block give the loop's bits,
    # across block edges (n_max + 1 = 256, 257, 258, 512, 513, 514), into
    # underflow and past the float range, where a sum is inf without a warning
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=n_terms) * 10.0 ** rng.uniform(-3, 3, size=n_terms)
    if kind == "complex":
        coeffs = coeffs + 1j * rng.normal(size=n_terms)
    elif kind == "tiny":
        coeffs = coeffs * 1e-300
    elif kind == "huge":
        coeffs = coeffs * 1e290
    seq = closed_form_sequence(coeffs, xi, p, n_max)
    values, next_terms = _closed_form_loop(coeffs, xi, p, n_max)
    assert seq.values.tobytes() == values.tobytes()
    assert seq.next_terms.tobytes() == next_terms.tobytes()


def _sqrt_lipschitz_constants(n_max: int) -> np.ndarray:
    """L_n for n < n_max, the paper's sqrt-Lipschitz constants of gamma per unit sup|g|.

    With R ~ Gamma(n + 1, 1) the weight step w_{n+1} - w_n = w_n (r / (n + 1) - 1)
    gives sqrt(n + 1) |gamma(n + 1) - gamma(n)| <= L_n sup|g|, where
    L_n = 2 (n + 1)^(n + 1) e^-(n + 1) / (n! sqrt(n + 1)) is sqrt(n + 1) times
    the mean absolute deviation of R / (n + 1) and stays below sqrt(2 / pi).
    """
    n1 = np.arange(1.0, n_max + 1.0)  # n + 1
    return np.exp(math.log(2.0) + n1 * np.log(n1) - n1 - gammaln(n1) - 0.5 * np.log(n1))


@settings(max_examples=50, deadline=None)
@given(
    xi=st.integers(2, 60),
    coeffs=st.one_of(
        st.lists(_reals, min_size=1, max_size=11), st.lists(_complexes, min_size=1, max_size=11)
    ),
    p=st.one_of(st.just(0.0), _offsets),
    n_max=st.integers(1, 2999),
)
def test_closed_form_sequence_is_sqrt_lipschitz(xi, coeffs, p, n_max):
    # the paper's sqrt-Lipschitz bound, with the engine's roundoff on top
    sym = with_limit_offset(combo_symbol(coeffs, xi), p)
    values = closed_form_sequence(coeffs, xi, p, n_max).values
    n1 = np.arange(1.0, n_max + 1.0)  # n + 1 for n < n_max
    lipschitz = _sqrt_lipschitz_constants(n_max)
    assert lipschitz.max() < math.sqrt(2.0 / math.pi)
    roundoff = 2.0 * (2.0 * n1 + len(coeffs) + 2.0) * _UNIT_ROUNDOFF * np.sqrt(n1)
    steps = np.sqrt(n1) * np.abs(np.diff(values))
    assert np.all(steps <= (lipschitz + roundoff) * sup_estimate(sym))


@settings(max_examples=20, deadline=None)
@given(
    shape=st.one_of(
        st.tuples(st.just("cos"), st.floats(0.05, 2.0)),
        st.tuples(st.just("gauss"), st.floats(0.05, 3.0)),
    ),
    n_max=st.integers(1, 400),
)
def test_quadrature_sequence_is_sqrt_lipschitz(shape, n_max):
    # the same bound on quadrature sequences of black-box callables, each
    # value allowed its own error estimate
    kind, b = shape
    if kind == "cos":
        sym = CallableSymbol(lambda x: np.cos(b * x * x))
    else:
        sym = CallableSymbol(lambda x: np.exp(-b * x * x))
    seq = gamma_sequence(sym, n_max)
    values = np.array(seq.values)
    errs = np.array([entry.est_abs_err for entry in seq.entries])
    root = np.sqrt(np.arange(1.0, n_max + 1.0))  # sqrt(n + 1) for n < n_max
    steps = root * np.abs(np.diff(values))
    bound = _sqrt_lipschitz_constants(n_max) * sup_estimate(sym) + root * (errs[:-1] + errs[1:])
    assert np.all(steps <= bound)


def test_monotone_tail_for_admissible_scales():
    # with 2 xi >= m + 2 the eigenvalue sequence is nonincreasing past n = m:
    # gamma(n) >= gamma(n+1) iff binom(n, m) * xi >= binom(n+1, m), checked
    # exhaustively in exact integer arithmetic
    for m in range(21):
        xi_min = max(2, math.ceil((m + 2) / 2))
        for xi in range(xi_min, 65):
            binom = m + 1  # binom(m+1, m)
            for n in range(m + 1, 501):
                binom_next = binom * (n + 1) // (n + 1 - m)
                assert binom * xi >= binom_next, (m, xi, n)
                binom = binom_next
    # the same fact on the actual closed-form values for one family
    vals = [gamma_closed_form(3, 3, n) for n in range(3, 60)]
    assert all(a >= b for a, b in zip(vals[1:], vals[2:]))


def test_norm_bound_closed_form_families():
    # |gamma(n)| <= the sup bound of the symbol
    for m in range(6):
        for xi in (2, 4):
            sym = basic_symbol(m, xi)
            bound = sup_estimate(sym) + 1e-9
            for n in range(51):
                assert abs(float(gamma_closed_form(m, xi, n))) <= bound


# ---------------------------------------------------------------------------
# quadrature

def test_gamma_quadrature_constant_one():
    one = LaguerreCombo(offset=1.0)
    for n in (0, 1, 7, 63, 200, 500):
        res = gamma_quadrature(one, n)
        assert abs(res.value - 1.0) <= 1e-10
        assert res.converged


def test_gamma_quadrature_gaussian_callable():
    # g(x) = e^{-x^2} has eigenvalues 2^{-(n+1)}; an infinite declared bound
    # must still give a finite window
    for bound in (1.0, math.inf):
        sym = CallableSymbol(lambda x: np.exp(-(x**2)), sup_bound=bound)
        for n in range(5):
            res = gamma_quadrature(sym, n)
            assert abs(res.value - 2.0 ** -(n + 1)) <= 1e-10


def test_gamma_quadrature_cross_engine():
    res = gamma_quadrature(basic_symbol(1, 4), 3)
    assert abs(res.value - 3 / 16) <= 1e-8


def test_quadrature_of_an_overflowing_symbol_warns_nothing():
    # basic(500, 2) overflows in float64 and double-double near r = 600
    # (the recurrence starts at e^-600); those passes' nan errors are thrown
    # away without a numpy RuntimeWarning, which pytest's filter makes an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = gamma_quadrature(basic_symbol(500, 2), 600)
    assert res.engine == "quad" and not res.converged


def test_gamma_quadrature_cancellation_cells():
    # closed form is exactly zero below the degree; the quadrature must hold
    # the absolute tolerance despite integrand mass ~ xi^m, and say so; the
    # window leaves out weight mass small enough for sup|g| ~ xi^(m+1), so
    # the error estimate stays as tight as the tolerance
    for m, xi, indices in ((10, 8, range(4)), (9, 8, (0,)), (6, 16, (3,))):
        for n in indices:
            res = gamma_quadrature(basic_symbol(m, xi), n)
            assert res.converged, (m, xi, n)
            assert abs(res.value) <= QuadConfig().tolerance(0.0), (m, xi, n)
            assert abs(res.value) <= res.est_abs_err <= 1e-9, (m, xi, n)


def test_exact_zero_converges_in_float64(monkeypatch):
    # gamma = 0 at n < m; float64 already holds it far inside the absolute
    # tolerance, so no extended-precision pass may be needed to certify it
    converts = []
    adaptive = eigenvalues._adaptive_gk

    def spy(f, convert, *args):
        converts.append(convert)
        return adaptive(f, convert, *args)

    monkeypatch.setattr(eigenvalues, "_adaptive_gk", spy)
    res = gamma_quadrature(basic_symbol(1, 2), 0)
    assert res.converged
    assert abs(res.value) <= 1e-12
    assert converts == [eigenvalues._to_float64]


def test_cancellation_cells_with_float64_longdouble(monkeypatch):
    # where longdouble is float64 the escalation must take its roundoff from
    # the type and move on to double-double instead of trusting float64 nodes
    monkeypatch.setattr(eigenvalues, "_to_longdouble", functools.partial(np.asarray, dtype=float))
    for m, xi, indices in ((10, 4, range(3)), (8, 8, (2,)), (6, 16, (2,))):
        for n in indices:
            res = gamma_quadrature(basic_symbol(m, xi), n)
            assert res.converged, (m, xi, n)
            assert abs(res.value - float(gamma_closed_form(m, xi, n))) <= 1e-12, (m, xi, n)


def test_gamma_quadrature_linearity():
    rng = np.random.default_rng(2)
    coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
    combo = combo_symbol(coeffs, 4)
    for n in (0, 2, 7):
        parts = sum(
            c * float(gamma_closed_form(k, 4, n)) for k, c in enumerate(coeffs)
        )
        # closed combo vs sum of closed parts
        assert abs(closed_form_sequence(coeffs, 4, 0.0, n).values[n] - parts) <= 1e-10
        # quadrature of the combo vs the same sum
        assert abs(gamma_quadrature(combo, n).value - parts) <= 1e-9


def test_weight_normalization():
    # gamma of the constant-1 symbol is the weight's total mass
    one = LaguerreCombo(offset=1.0)
    for n in (0, 5, 50, 500):
        assert abs(gamma_quadrature(one, n).value - 1.0) <= 1e-10


_TINY = float(np.finfo(float).tiny)


def _mp_tail(a, x, upper: bool):
    """Q(a, x) (upper) or P(a, x) at 50 digits."""
    with mpmath.workdps(50):
        if upper:
            return mpmath.gammainc(a, x, mpmath.inf, regularized=True)
        return mpmath.gammainc(a, 0, x, regularized=True) if x else mpmath.mpf(0)


def _mp_mass(a, lo, hi):
    """P(a, lo) + Q(a, hi) at 50 digits, leaving out P where its bound pi_a(lo) (a + 1) / (a + 1 - lo) is below 1e-20 Q."""
    upper = _mp_tail(a, hi, True)
    with mpmath.workdps(50):
        bound = mpmath.exp(a * mpmath.log(lo) - lo - mpmath.loggamma(a + 1)) * (a + 1) / (a + 1 - lo) if lo else 0
    return upper + (_mp_tail(a, lo, False) if bound > 1e-20 * upper else 0)


@settings(max_examples=30, deadline=None)
@given(
    ns=st.lists(st.integers(0, 3000), min_size=1, max_size=16),
    sup_g=st.one_of(st.floats(0.0, 1e300), st.just(math.inf)),
    rel_tol=st.floats(1e-14, 1e-2),
)
@example(ns=[201], sup_g=math.inf, rel_tol=0.0078125)  # a lower tail of 2.6e-319 in a mass of 2.2e-308
def test_windows_cover_the_peak_and_report_their_mass(ns, sup_g, rel_tol):
    # one call gives the windows of a whole sequence; each reaches at least
    # 14 sqrt(n + 1) to either side of the peak, reports a bound of the weight
    # mass it leaves out, and is the window the index gets alone, bit for bit
    lo, hi, mass = eigenvalues._windows(ns, sup_g, rel_tol)
    for i, n in enumerate(ns):
        assert lo[i] <= max(0.0, n - 14 * math.sqrt(n + 1)) and hi[i] >= n + 14 * math.sqrt(n + 1), n
        # the mass is a bound, at most 5 % above the 50-digit mass (Robbins'
        # bound of n! and the geometric majorant of the tail's sum)
        exact = _mp_mass(n + 1, lo[i], hi[i])
        assert exact <= mass[i] <= 1.05 * exact, n
        alone = eigenvalues._windows([n], sup_g, rel_tol)
        assert [part[0] for part in alone] == [lo[i], hi[i], mass[i]], n


_SHAPES = st.floats(0.0, 5.0).map(lambda e: round(10.0**e))  # integer shapes 1 to 10^5, log-uniform


@settings(max_examples=30, deadline=None)
@given(a=_SHAPES, depth=st.floats(2.0**-20, 1.0), upper=st.booleans())
@example(a=1, depth=1.0, upper=False)  # P(1, x) = x near the smallest normal float
@example(a=1, depth=2.0**-20, upper=True)  # Q(1, x) = e^-x just past x = 0
@example(a=10**5, depth=1.0, upper=True)  # the largest shape, out where the tail is the smallest normal float
@example(a=10**5, depth=1.0, upper=False)
@example(a=10**5, depth=2.0**-20, upper=False)  # next to the peak, where the geometric majorant is loosest
@example(a=197, depth=0.01, upper=True)
def test_gamma_tails_match_mpmath(a, depth, upper):
    # x runs over the tail from its boundary (a - 1 for Q, a + 1 for P) out to
    # the edge where the bound is the smallest normal float; the bound there
    # is at least the 50-digit tail, in itself and in its log
    shape = np.array([float(a)])
    edge = float(eigenvalues._tail_edge(shape, shape.copy(), math.log(_TINY), upper)[0][0])
    boundary = a - 1.0 if upper else a + 1.0
    x = edge + (1.0 - depth) * (boundary - edge)
    log_bound, bound = eigenvalues._tail_bound(shape, np.array([x]), upper)
    tail = _mp_tail(a, x, upper)
    assert tail <= mpmath.mpf(float(bound[0])) and mpmath.log(tail) <= log_bound[0], x


@settings(max_examples=30, deadline=None)
@given(a=_SHAPES, log_target=st.floats(math.log(_TINY), math.log(0.4)), upper=st.booleans())
@example(a=1, log_target=math.log(_TINY), upper=False)
@example(a=1, log_target=math.log(_TINY), upper=True)
@example(a=10**5, log_target=math.log(_TINY), upper=False)  # so steep that one ulp of x moves P by 1e-12
@example(a=10**5, log_target=math.log(_TINY), upper=True)
@example(a=2, log_target=math.log(0.4), upper=True)  # the edge falls just past a, inside the peak
@example(a=1, log_target=math.log(0.4), upper=True)  # the edge stays at a
@example(a=93057, log_target=-475.5, upper=False)  # 0.10.5's quantile had a tail 1.3e-13 above target
def test_gamma_tail_inverses_match_mpmath(a, log_target, upper):
    # the edge out from x = a has a log-bound of at most the target, in the
    # last _EDGE_GAP below it if the edge moved (Q(1, 1) is bounded below
    # 0.4 already), and a bound that the same call gives again, bit for bit,
    # and that is at least the 50-digit tail there
    shape = np.array([float(a)])
    edge, bound = eigenvalues._tail_edge(shape, shape.copy(), log_target, upper)
    log_bound, again = eigenvalues._tail_bound(shape, edge, upper)
    assert log_bound[0] <= log_target and again[0] == bound[0], edge
    assert edge[0] == a or log_bound[0] >= log_target - eigenvalues._EDGE_GAP, edge
    tail = _mp_tail(a, float(edge[0]), upper)
    assert tail <= mpmath.mpf(float(bound[0])) and mpmath.log(tail) <= log_bound[0], edge


_DD_UNIT = mpmath.mpf(2) ** -106


def _mpf_sum(hi, lo):
    """The exact value hi + lo of a double-double, as an mpmath number (exact at 50 digits)."""
    with mpmath.workdps(50):
        return mpmath.mpmathify(complex(hi)) + mpmath.mpmathify(complex(lo))


def _from_mpf(values) -> DD:
    """Real mpmath numbers as DD, each rounded twice at 40 digits: hi = float(v), lo = float(v - hi)."""
    with mpmath.workdps(40):
        hi = [float(v) for v in values]
        return DD(np.array(hi), np.array([float(v - h) for v, h in zip(values, hi)]))


def test_gauss_kronrod_constants_are_exact():
    # in each number type both rules have unit-interval mass 2 and integrate
    # x^k exactly up to their degree: 22 for Kronrod-15, 13 for the embedded
    # Gauss-7, to 4 eps of the type; the double-double rule's hi + lo, summed
    # exactly in 50-digit mpmath, to 4 * 2^-106
    types = (
        (eigenvalues._to_float64, np.float64(1), np.finfo(float).eps),
        (eigenvalues._to_longdouble, np.longdouble(1), np.finfo(np.longdouble).eps),
    )
    for convert, one, eps in types:
        xgk, wgk, wg7 = eigenvalues._gk15_rule(convert)
        assert {type(v) for v in (*xgk, *wgk, *wg7)} == {type(one)}
        for nodes, weights, degree in ((xgk, wgk, 22), (xgk[1::2], wg7, 13)):
            for k in range(degree + 1):
                exact = 2 * one / (k + 1) if k % 2 == 0 else 0 * one
                assert abs((weights * nodes**k).sum() - exact) <= 4 * eps, (convert, k)
    rule = eigenvalues._gk15_rule(eigenvalues._to_double_double)
    assert all(isinstance(part, DD) and part.hi.dtype == part.lo.dtype == np.float64 for part in rule)
    xgk, wgk, wg7 = ([_mpf_sum(h, l).real for h, l in zip(part.hi, part.lo)] for part in rule)
    with mpmath.workdps(50):
        for nodes, weights, degree in ((xgk, wgk, 22), (xgk[1::2], wg7, 13)):
            for k in range(degree + 1):
                exact = mpmath.mpf(2) / (k + 1) if k % 2 == 0 else 0
                got = mpmath.fsum(w * x**k for w, x in zip(weights, nodes))
                assert abs(got - exact) <= 4 * _DD_UNIT, k


def test_double_double_pass_error_covers_its_truncation():
    # one coarse panel, no splits: the error of r^3 e^-r / 3! on [0, 40] is
    # GK15 truncation, far above the pass's roundoff floor, and the estimate
    # has to cover it
    sym = LaguerreCombo(offset=1.0)
    dd_pass = eigenvalues._passes(sym, [3], None)[-1]
    integrand = eigenvalues._integrand(dd_pass.values, [3], dd_pass.convert)
    cfg = QuadConfig(max_subdivisions=0)
    floor = dd_pass.floors
    window = (np.array([0.0]), np.array([40.0]))
    (value,), (err,), *_ = eigenvalues._adaptive_gk(
        integrand, dd_pass.convert, dd_pass.scale, [0.0], [40.0], cfg, floor[:, None], floor, window, [0]
    )
    with mpmath.workdps(50):
        miss = abs(_mpf_sum(value.hi, value.lo).real - mpmath.gammainc(4, 0, 40) / 6)
    assert floor[0] < miss <= err


def _constants():
    """Every constant read past float64, built afresh: the double-double rule, exp's constants, ln n!, factors."""
    eigenvalues._gk15_rule.cache_clear()
    dd_exp_constants.cache_clear()
    eigenvalues._log_factorial.cache_clear()
    eigenvalues._stirling_coefficients.cache_clear()
    dd_log2_fixed.cache_clear()
    symbols._scaled_factors.cache_clear()
    halves = [*eigenvalues._gk15_rule(eigenvalues._to_double_double), dd_exp_constants()]
    scale, re, im, sup = symbols._scaled_factors(LaguerreCombo(40, (0.1, -1 / 3 + 0.2j, 2.0**-60), 1 / 7))
    halves += [re, im]
    return (
        [(part.hi.tolist(), part.lo.tolist()) for part in halves],
        [eigenvalues._log_factorial(n) for n in (7, 29, 30, 300, 12345)],
        scale,
        sup,
    )


def test_double_double_rule_keeps_its_precision():
    # the double-double rule, exp's ln 2, ln n! and a symbol's factors are
    # read or computed exactly or in integers, so they do not change with the
    # working precision of `decimal` or mpmath when they are first built,
    # and the deepest cancellation cell is not certified from a 15-digit rule
    built = []
    try:
        for prec in (15, 28, 60):
            with decimal.localcontext() as ctx, mpmath.workdps(prec):
                ctx.prec = prec
                built.append(_constants())
                res = gamma_quadrature(basic_symbol(12, 8), 0)
            assert res.converged and res.tier == "double-double", prec
            assert abs(res.value) <= res.est_abs_err, prec
    finally:
        _constants()
    assert built[0] == built[1] == built[2]


def test_unreachable_cancellation_fails_fast(monkeypatch):
    # 17 terms at xi = 40 cancel past 32 digits at n = 0: no pass can meet
    # the tolerance, so the double-double pass evaluates its panels once and stops
    batches = []
    one_integrand = eigenvalues._integrand

    def counted(values, ns, convert):
        integrand = one_integrand(values, ns, convert)
        if convert is not eigenvalues._to_double_double:
            return integrand
        return lambda r: batches.append(len(r)) or integrand(r)

    monkeypatch.setattr(eigenvalues, "_integrand", counted)
    coeffs = np.random.default_rng(0).normal(size=17)
    res = gamma_quadrature(combo_symbol(coeffs, 40), 0)
    assert not res.converged
    assert abs(res.value - coeffs[0]) <= res.est_abs_err
    assert len(batches) == 1


def test_double_double_pass_holds_the_deepest_cancellation():
    # at n = 0 these integrands cancel past the longdouble floor; only the
    # double-double pass brings them within the tolerance
    for m, xi in ((12, 8), (9, 16)):
        res = gamma_quadrature(basic_symbol(m, xi), 0)
        assert res.tier == "double-double", (m, xi)
        assert res.converged and abs(res.value) <= 1e-9, (m, xi)


def test_double_double_defines_no_comparison():
    # panel edges are float64 in every pass, so a double-double is never
    # compared or sorted; those calls raise like any other unlisted ufunc
    x = DD(np.array([1.0]))
    for compare in (lambda: x < 2.0, lambda: x > 2.0, lambda: np.lexsort((x,))):
        with pytest.raises(TypeError):
            compare()
    # nor is a complex times complex product, which two_prod cannot make error-free
    z = DD(np.array([1.0 + 1.0j]))
    with pytest.raises(TypeError, match="complex times complex"):
        z * z


def test_extended_passes_split_float64_panels():
    # the longdouble and double-double passes bisect float64 edges; the
    # children of every split tile the span the pass started from
    sym, cfg = basic_symbol(12, 8), QuadConfig()
    lo, hi, _ = eigenvalues._windows([0], sup_estimate(sym), cfg.rel_tol)
    start_a, start_b = eigenvalues._grid_panels(sym, [0], lo[0], hi[0])
    passes = eigenvalues._passes(sym, [0], None)
    for convert, scale, values, floors, tier in passes[1:]:
        *_, splits, a, b = eigenvalues._adaptive_gk(
            eigenvalues._integrand(values, [0], convert), convert, scale,
            start_a, start_b, cfg, floors[:, None], passes[-1].floors, (lo, hi), [0],
        )
        assert splits[0] > 0, tier
        assert a.dtype == b.dtype == np.float64, tier
        order = np.argsort(a)
        a, b = a[order], b[order]
        assert a[0] == start_a[0] and b[-1] == start_b[-1], tier
        assert np.array_equal(a[1:], b[:-1]), tier


def _pass_records(monkeypatch, sym, n):
    """The record of gamma(n) and each pass's (tier, value, error), as its `_adaptive_gk` call returned them."""
    tiers = {convert: tier for tier, convert in _PASSES.items()}
    runs = []
    adaptive = eigenvalues._adaptive_gk

    def spy(f, convert, *args):
        found = adaptive(f, convert, *args)
        runs.append((tiers[convert], complex(np.asarray(found[0])[0]), float(found[1][0])))
        return found

    monkeypatch.setattr(eigenvalues, "_adaptive_gk", spy)
    # the float64 recurrence may overflow far out in the window at these
    # degrees, so its warnings are silenced and a nan shows in the passes
    with np.errstate(over="ignore", invalid="ignore"):
        res = gamma_quadrature(sym, n)
    return res, runs


def _assert_no_pass_did_better(res, runs):
    """The record holds a pass's value, and no pass found an error below that pass's, nan aside."""
    kept = [run for run in runs if run[0] == res.tier][0]
    assert res.value == kept[1], (res, runs)
    assert all(math.isnan(err) or err >= kept[2] for _, _, err in runs), (res, runs)


def test_an_overflowing_integrand_is_no_certificate(monkeypatch):
    # the float64 Laguerre recurrence of basic(997, 2) overflows inside the
    # window of n = 1000; that value came back as -4.56e272 with
    # converged=True when overflowed terms read 0, where gamma(1000) is
    # 20770875; an overflow has to show as an unconverged record, and its
    # nan error has to escalate to longdouble, whose range holds the
    # recurrence, not stop at a float64 nan.  The double-double recurrence
    # overflows as float64's does; its nan must not replace the finite
    # longdouble record
    sym = basic_symbol(997, 2)
    exact = closed_form_sequence(sym.coefficients, sym.xi, sym.offset, 1000).values[1000]
    assert exact == 20770875.0
    res, runs = _pass_records(monkeypatch, sym, 1000)
    assert not res.converged or abs(res.value - exact) <= res.est_abs_err, res
    assert [tier for tier, *_ in runs] == list(_PASSES), runs
    assert math.isnan(runs[-1][2]), runs
    assert res.tier == "longdouble", res
    assert np.isfinite(res.value) and np.isfinite(res.est_abs_err), res
    _assert_no_pass_did_better(res, runs)


def test_huge_symbols_reach_double_double(monkeypatch):
    # the panel sums are scaled by 2^scale only after they are summed, so the
    # double-double integrand stays within 2 and Dekker's split (which
    # overflows at 2^996) holds even where sup|g| is 2^995 (basic(994, 2)) or
    # more; these records stopped at longdouble with the estimates below, and
    # gamma_m(0) = 0 for m > 0
    for (m, xi), longdouble_est in (((187, 40), 1.6262552829932253e297), ((994, 2), 5.110419308621071e297)):
        res, runs = _pass_records(monkeypatch, basic_symbol(m, xi), 0)
        assert res.tier == "double-double" and not res.converged, (m, xi, res)
        assert np.isfinite(res.value) and np.isfinite(res.est_abs_err), (m, xi, res)
        assert abs(res.value) <= res.est_abs_err < longdouble_est, (m, xi, res)
        _assert_no_pass_did_better(res, runs)


def _exact_values(values):
    """The exact values of an array in any pass's number type, as mpmath numbers (exact at 50 digits)."""
    if isinstance(values, DD):
        return [_mpf_sum(hi, lo) for hi, lo in zip(values.hi, values.lo)]
    re, im = to_dd(np.real(values)), to_dd(np.imag(values))
    return [_mpf_sum(a, b) + 1j * _mpf_sum(c, d) for a, b, c, d in zip(re.hi, re.lo, im.hi, im.lo)]


def test_dd_integrand_matches_mpmath_laguerre():
    # the one integrand of a structured symbol, run in each pass's number
    # type, against 2^-scale times mpmath's own hypergeometric L_k at 60
    # digits, which shares no code with the recurrence, on nodes with a lo
    # half rounded into that type; the terms may cancel, so the error allowed
    # is the pass's floor relative to the same sum taken with absolute values
    symbols = [
        basic_symbol(10, 8),
        combo_symbol(np.random.default_rng(0).normal(size=6), 40),
        LaguerreCombo(offset=1.0),
        LaguerreCombo(xi=3, coefficients=(0.5, 0.0, -1.0 + 0.25j), offset=0.125 - 1j),
        combo_symbol(np.random.default_rng(0).normal(size=17), 40),
    ]
    ns = (0, 1, 2, 5)
    with mpmath.workdps(40):
        dd_nodes = _from_mpf([mpmath.mpf(k) * 3 / 5 for k in range(1, 11)])
    for sym in symbols:
        passes = eigenvalues._passes(sym, ns, None)
        assert [pass_.tier for pass_ in passes] == ["float64", "longdouble", "double-double"]
        for convert, scale, values, floors, tier in passes:
            nodes = eigenvalues._in_type(dd_nodes, convert)
            rows = eigenvalues._integrand(values, ns, convert)(nodes)
            assert rows.shape == (len(ns), len(nodes)), tier
            if tier != "double-double":
                assert rows.dtype.kind == "c" or rows.dtype == np.asarray(nodes).dtype, tier
            for n, floor, row in zip(ns, floors, rows):
                with mpmath.workdps(60):
                    for r, got in zip(_exact_values(nodes), _exact_values(row)):
                        r = r.real
                        weight = r**n * mpmath.exp(-r) / mpmath.factorial(n)
                        terms = [
                            mpmath.mpmathify(complex(c)) * (-sym.xi) ** k * sym.xi
                            * mpmath.exp(-(sym.xi - 1) * r) * mpmath.laguerre(k, 0, sym.xi * r)
                            for k, c in enumerate(sym.coefficients)
                        ]
                        offset = mpmath.mpmathify(complex(sym.offset))
                        unit = mpmath.ldexp(1, -scale)
                        want = (mpmath.fsum(terms) + offset) * weight * unit
                        size = (mpmath.fsum(abs(t) for t in terms) + abs(offset)) * weight * unit
                        assert abs(got - want) <= floor * size, (sym, tier, n, r)


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(-670.0, 5.0),
    r=st.floats(1e-12, 1e5),
    spin=st.floats(-1.0, 1.0),
)
def test_double_double_exp_and_log_meet_their_bounds(x, r, spin):
    # over the arguments the weight exp(n ln r - r - ln n!) meets, with a lo
    # half: exp within (2|x| + 8) u relative, log within (2 |ln r| + 2) u absolute
    u = 2.0**-106
    arg = DD(*two_sum(x, spin * abs(x) * 2.0**-54))
    pos = DD(*two_sum(r, spin * r * 2.0**-54))
    got_exp, got_log = dd_exp(arg), dd_log(pos)
    with mpmath.workdps(50):
        exact_x, exact_r = _mpf_sum(arg.hi, arg.lo).real, _mpf_sum(pos.hi, pos.lo).real
        exp_err = abs(_mpf_sum(got_exp.hi, got_exp.lo).real / mpmath.exp(exact_x) - 1)
        log_err = abs(_mpf_sum(got_log.hi, got_log.lo).real - mpmath.log(exact_r))
    assert exp_err <= (2 * abs(x) + 8) * u, x
    assert log_err <= (2 * abs(math.log(r)) + 2) * u, r


@settings(max_examples=25, deadline=None)
@given(
    coeffs=st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=1, max_size=4),
    xi=st.integers(2, 16),
    n_max=st.integers(0, 20),
)
# subnormal values, which the float64 integral loses entirely: only the
# absolute underflow term of the estimate covers them
@example(coeffs=[5e-324, 5e-324], xi=2, n_max=1)
def test_converged_quadrature_lies_within_its_estimate(coeffs, xi, n_max):
    seq = gamma_sequence(combo_symbol(coeffs, xi), n_max, engine="quad")
    for n, res in enumerate(seq.entries):
        exact = sum(Fraction(c) * gamma_closed_form(k, xi, n) for k, c in enumerate(coeffs))
        err = math.hypot(float(Fraction(res.value.real) - exact), res.value.imag)
        assert not res.converged or err <= res.est_abs_err, (n, err, res)


_HUGE = st.floats(1e306, 1.7976931348623157e308) | st.floats(1e300, 1e306) | st.sampled_from([0.0, 1.0, -0.5])


@settings(max_examples=20, deadline=None)
@given(
    coeffs=st.lists(st.tuples(_HUGE, _HUGE, st.booleans(), st.booleans()), min_size=1, max_size=4),
    xi=st.sampled_from([2, 3, 4, 8]),
    n_max=st.integers(0, 6),
)
# the terms of gamma(0) and gamma(2) cancel exactly, and the window bound reads inf
@example(coeffs=[(1.5e308, 1.5e308, False, False), (1.5e308, 1.5e308, True, True)], xi=2, n_max=2)
# sup|g| is finite, but the panel sums times 2^scale pass the float range
@example(coeffs=[(1e306, 1e306, False, False)], xi=2, n_max=0)
def test_converged_quadrature_near_the_float_range_lies_within_a_finite_estimate(coeffs, xi, n_max):
    # sup|g| and the panel sums pass the float range here; such a record may not converge,
    # and filterwarnings = error fails the test on a leaked overflow warning
    terms = [complex(-re if neg_re else re, -im if neg_im else im) for re, im, neg_re, neg_im in coeffs]
    seq = gamma_sequence(LaguerreCombo(xi, tuple(terms)), n_max, engine="quad")
    for n, res in enumerate(seq.entries):
        if not res.converged:
            continue
        assert math.isfinite(res.est_abs_err) and cmath.isfinite(res.value), (n, res)
        closed = [gamma_closed_form(k, xi, n) for k in range(len(terms))]
        exact_re = sum(Fraction(c.real) * g for c, g in zip(terms, closed))
        exact_im = sum(Fraction(c.imag) * g for c, g in zip(terms, closed))
        err_squared = (Fraction(res.value.real) - exact_re) ** 2 + (Fraction(res.value.imag) - exact_im) ** 2
        assert err_squared <= Fraction(res.est_abs_err) ** 2, (n, res)


def test_error_estimate_covers_oscillating_callable():
    # g(x) = cos(b x^2) has gamma(n) = Re (1 - ib)^-(n+1); the rounding of
    # the weight grows with n, and the estimate has to grow with it, both for
    # single indices and for every index of a sequence on its shared grid
    for b, indices in ((0.8, range(260)), (0.3, (600, 900, 1188)), (1.5, range(0, 260, 3))):
        sym = CallableSymbol(lambda x, b=b: np.cos(b * x**2), sup_bound=1.0)
        for n in indices:
            res = gamma_quadrature(sym, n)
            exact = ((1 - 1j * b) ** -(n + 1)).real
            assert abs(res.value - exact) <= res.est_abs_err, (b, n)
        for n, res in enumerate(gamma_sequence(sym, max(indices)).entries):
            exact = ((1 - 1j * b) ** -(n + 1)).real
            assert abs(res.value - exact) <= res.est_abs_err, (b, n)


def _counting(f, c, points):
    """x -> f(c x^2), adding the points it evaluates to points[0].

    With the `math` functions it raises on arrays, so the library falls back
    to one call per point; a failed array call counts nothing.
    """

    def g(x):
        out = f(c * x * x)
        points[0] += np.size(x)
        return out

    return g


@pytest.mark.parametrize("lib", [np, math], ids=["numpy", "math"])
def test_sequence_evaluates_the_callable_once_per_shared_node(lib):
    # the indices of a sequence share one panel grid, so the callable sees
    # each node once: 600, 1920 and 2910 points here, where one adaptive
    # loop per index took 40170, 139410 and 247050
    for f, c, exact in (
        (lib.exp, -1.0, lambda n: 2.0 ** -(n + 1)),
        (lib.cos, 0.8, lambda n: ((1 - 0.8j) ** -(n + 1)).real),
        (lib.cos, 1.5, lambda n: ((1 - 1.5j) ** -(n + 1)).real),
    ):
        points = [0]
        seq = gamma_sequence(CallableSymbol(_counting(f, c, points)), 200)
        assert points[0] < 10_000, (f, c, points[0])
        assert seq.converged, (f, c)
        for n, res in enumerate(seq.entries):
            assert abs(res.value - exact(n)) <= res.est_abs_err, (f, c, n)
    # an infinite declared bound still gives every index a finite window,
    # a finite value and an estimate that is not NaN
    sym = CallableSymbol(_counting(lib.exp, -1.0, [0]), sup_bound=math.inf)
    for n, res in enumerate(gamma_sequence(sym, 200).entries):
        assert abs(res.value - 2.0 ** -(n + 1)) <= 1e-10, n
        assert not math.isnan(res.est_abs_err), n


def test_structured_sequence_evaluates_the_symbol_once_per_shared_node(monkeypatch):
    # a structured sequence shares the grid too, and its one integrand never
    # goes through `eval_symbol`: 7080 float64 nodes for basic(4, 8) to
    # n = 200, one evaluation per node of each block, where one adaptive
    # loop per index took 67620
    calls, points = [], [0]
    one_integrand = eigenvalues._integrand

    def spy(values, ns, convert):
        integrand = one_integrand(values, ns, convert)

        def counted(r):
            if convert is eigenvalues._to_float64:
                points[0] += np.size(r)
            return integrand(r)

        return counted

    monkeypatch.setattr(eigenvalues, "eval_symbol", lambda *args: calls.append(args))
    monkeypatch.setattr(eigenvalues, "_integrand", spy)
    seq = gamma_sequence(basic_symbol(4, 8), 200, engine="quad")
    assert not calls
    assert 0 < points[0] < 10_000, points[0]
    assert seq.converged
    for n, res in enumerate(seq.entries):
        exact = float(gamma_closed_form(4, 8, n))
        assert abs(res.value - exact) <= res.est_abs_err, n


def test_no_false_certificates_at_large_scale():
    # at large xi the integrand's mass sits at r ~ n / xi, far inside the
    # first panel of the sqrt(r) grid; the grid in sqrt(xi r) has to resolve
    # it, or a coarse panel certifies a wrong value (basic(1, 10^6) at n = 0
    # gave -1.8 with an estimate of 1e-11)
    for m in (0, 1, 3):
        for xi in (10**4, 10**6, 10**7):
            exact = closed_form_sequence([0.0] * m + [1.0], xi, 0.0, 40).values
            for n, res in enumerate(gamma_sequence(basic_symbol(m, xi), 40, engine="quad").entries):
                assert not res.converged or abs(res.value - exact[n]) <= res.est_abs_err, (m, xi, n, res)


def test_quad_records_carry_python_scalars():
    # the CLI's "%.17g" fast path reads every field as a Python scalar, whichever
    # pass made the record; basic(8, 8) to n = 10 has float64 and double-double
    # records, and longdouble ones where that type is wider than float64
    entries = gamma_sequence(basic_symbol(8, 8), 10, engine="quad").entries
    assert {"float64", "double-double"} <= {res.tier for res in entries}
    kinds = {"value": complex, "engine": str, "est_abs_err": float, "converged": bool, "subdivisions": int, "tier": str}
    for res in entries:
        assert {name: type(getattr(res, name)) for name in kinds} == kinds, res


def test_times_sup_keeps_no_mass_at_zero():
    got = eigenvalues._times_sup(math.inf, np.array([0.0, 1e-300, 2.0]))
    assert got.tolist() == [0.0, math.inf, math.inf]
    assert eigenvalues._times_sup(3.0, np.array([0.0, 0.5])).tolist() == [0.0, 1.5]


def test_each_precision_tier_runs_once_per_block(monkeypatch):
    # the zero eigenvalues of basic(8, 8) at n < 5 need longdouble and double-double;
    # the indices of a block that miss tau share each tier's one adaptive loop
    converts = []
    adaptive = eigenvalues._adaptive_gk

    def spy(f, convert, *args):
        converts.append(convert)
        return adaptive(f, convert, *args)

    monkeypatch.setattr(eigenvalues, "_adaptive_gk", spy)
    seq = gamma_sequence(basic_symbol(8, 8), 31, engine="quad")
    assert converts == [eigenvalues._to_float64, eigenvalues._to_longdouble, eigenvalues._to_double_double]
    # each record names the pass that produced it: the exact zeros at n < 5
    # cancel past float64 (those at n = 5, 6, 7 do not), and every zero is
    # certified within tau
    tiers = [res.tier for res in seq.entries]
    assert "double-double" in tiers[:5]
    assert all(tier in ("longdouble", "double-double") for tier in tiers[:5]), tiers
    assert set(tiers) <= {"float64", "longdouble", "double-double"}
    assert all(res.converged and abs(res.value) <= QuadConfig().tolerance(0.0) for res in seq.entries[:8])
    # and every record the shared passes certify lies within its estimate
    combo = combo_symbol(np.random.default_rng(2).normal(size=6), 40)
    for sym, n_max in ((basic_symbol(8, 8), 155), (combo, 45)):
        exact = closed_form_sequence(sym.coefficients, sym.xi, sym.offset, n_max).values
        for n, res in enumerate(gamma_sequence(sym, n_max, engine="quad").entries):
            assert not res.converged or abs(res.value - exact[n]) <= res.est_abs_err, (sym, n, res)


def test_records_do_not_depend_on_the_longdouble_width(monkeypatch):
    # where longdouble is float64 (aarch64 Linux, macOS on ARM) the
    # double-double pass alone carries the cancellation cells; every record
    # of the heavy sequences keeps its converged flag, lies within tau of the
    # native record, and, if converged, within its estimate of the closed form
    combo = combo_symbol(np.random.default_rng(2).normal(size=6), 40)
    cases = ((basic_symbol(8, 8), 155), (basic_symbol(6, 16), 105), (combo, 45))
    native = [gamma_sequence(sym, n_max, engine="quad").entries for sym, n_max in cases]
    monkeypatch.setattr(eigenvalues, "_to_longdouble", functools.partial(np.asarray, dtype=float))
    cfg = QuadConfig()
    for (sym, n_max), records in zip(cases, native):
        exact = closed_form_sequence(sym.coefficients, sym.xi, sym.offset, n_max).values
        narrow = gamma_sequence(sym, n_max, engine="quad").entries
        for n, (res, ref) in enumerate(zip(narrow, records)):
            assert res.converged == ref.converged, (sym, n, res, ref)
            assert abs(res.value - ref.value) <= cfg.tolerance(ref.value), (sym, n, res, ref)
            assert not res.converged or abs(res.value - exact[n]) <= res.est_abs_err, (sym, n, res)


def test_fixed_point_log_meets_its_bound():
    # ln z in units of 2^-LOG_BITS, against 90-digit mpmath: within 400
    # units per bit of z, over small z, both sides of powers of two, the
    # factorials below the switch to Stirling's series and a 200-bit z
    zs = [*range(1, 300), *(2**k + d for k in range(2, 64, 7) for d in (-1, 0, 1)), math.factorial(29), 3**126]
    with mpmath.workdps(90):
        for z in zs:
            exact = mpmath.log(z) * mpmath.mpf(2) ** LOG_BITS
            assert abs(log_fixed(z) - exact) <= 400 * z.bit_length(), z


def test_log_factorial_is_correctly_rounded():
    # the weight's normalizer ln n!; math.lgamma(92) is 1.5 ulp off, a bias
    # every w_91 would carry
    # its lo half makes hi + lo ln n! to the double-double unit, on both
    # sides of the switch to Stirling's series and on sampled n up to 10^7
    rng = random.Random(26)
    ns = [*range(1001), *(rng.randrange(1000, 10**k) for k in (4, 5, 6, 7) for _ in range(50)), 10**7]
    with mpmath.workdps(50):
        for n in ns:
            hi, lo = eigenvalues._log_factorial(n)
            exact = mpmath.loggamma(n + 1)
            assert hi == float(exact), n
            assert abs(_mpf_sum(hi, lo).real - exact) <= _DD_UNIT * exact, n
    # one uncached call takes some 15 us at any n; the logarithm of the
    # exact n! would take 0.15 s at n = 2 * 10^4 and grow from there
    for n in (29, 2 * 10**4, 10**7):
        best = math.inf
        for _ in range(5):
            start = time.perf_counter()
            eigenvalues._log_factorial.__wrapped__(n)
            best = min(best, time.perf_counter() - start)
        assert best < 0.005, (n, best)


def test_callables_get_no_extended_pass():
    # a black-box callable has no higher-precision form: at a tolerance below
    # float64 roundoff the float64 pass stops at once (fail-fast, no splits),
    # no further pass runs, and the value still lies within its estimate
    sym = CallableSymbol(lambda x: np.cos(0.8 * x * x))
    assert [convert for convert, *_ in eigenvalues._passes(sym, [0], None)] == [eigenvalues._to_float64]
    for n in (0, 5, 40):
        res = gamma_quadrature(sym, n, QuadConfig(rel_tol=1e-15))
        assert not res.converged and res.subdivisions == 0, n
        assert abs(res.value - ((1 - 0.8j) ** -(n + 1)).real) <= res.est_abs_err, n


def test_small_symbol_is_held_to_the_absolute_tolerance():
    # tau = rel_tol * max(1, |gamma|) is absolute below unit size: every value
    # of 1e-6 basic(2, 2) is within rel_tol of the closed form, not within
    # rel_tol of itself
    cfg = QuadConfig()
    sym = LaguerreCombo(xi=2, coefficients=(0.0, 0.0, 1e-6))
    for n in range(0, 60, 3):
        res = gamma_quadrature(sym, n, cfg)
        exact = 1e-6 * float(gamma_closed_form(2, 2, n))
        assert res.converged, n
        assert abs(res.value - exact) <= cfg.rel_tol, n


def test_budget_exhaustion_is_not_converged():
    # with no splits allowed basic(8, 8) cannot settle its panels at small n;
    # no extended pass may then certify a value whose panels still carry
    # float64 truncation error
    cfg = QuadConfig(max_subdivisions=0)
    results = [gamma_quadrature(basic_symbol(8, 8), n, cfg) for n in range(10)]
    assert not any(res.converged for res in results[:4])
    for n, res in enumerate(results):
        exact = float(gamma_closed_form(8, 8, n))
        assert abs(res.value - exact) <= res.est_abs_err, n
        if res.converged:
            assert abs(res.value - exact) <= cfg.tolerance(exact), n


@pytest.mark.parametrize("budget", [1, 2, 3, 5, 8])
def test_split_budget_cut_spends_the_whole_budget(budget):
    # a(x) = cos(3x^2) gives gamma(n) = Re (1 - 3i)^-(n + 1); at n = 40 every
    # budget here runs out with panels still marked for splitting, and the
    # cut takes only as many of them as the budget has left
    sym = CallableSymbol(lambda x: np.cos(3.0 * x * x))
    res = gamma_quadrature(sym, 40, QuadConfig(max_subdivisions=budget))
    assert res.subdivisions == budget and not res.converged
    assert abs(res.value - ((1 - 3j) ** -41).real) <= res.est_abs_err


def test_quad_config_validation():
    # rel_tol is a finite positive real, max_subdivisions a nonnegative integer;
    # neither may be a bool
    for rel_tol in (0.0, -1e-10, math.inf, math.nan, True, "1e-10", 1e-10j):
        with pytest.raises(ValueError, match="rel_tol"):
            QuadConfig(rel_tol=rel_tol)
    for budget in (-1, 2.5, True, "10", None):
        with pytest.raises(ValueError, match="max_subdivisions"):
            QuadConfig(max_subdivisions=budget)
    assert QuadConfig(rel_tol=np.float64(1e-8), max_subdivisions=np.int64(0)).rel_tol == 1e-8


def test_nonconvergence_is_flagged_not_raised():
    cfg = QuadConfig(rel_tol=1e-30, max_subdivisions=1)
    res = gamma_quadrature(LaguerreCombo(offset=1.0), 3, cfg)
    assert not res.converged
    assert abs(res.value - 1.0) <= 1e-9  # value still sane
    assert res.est_abs_err > 1e-30  # and the estimate stays honest


# ---------------------------------------------------------------------------
# in-place kernels: the out-of-place formulas of 0.10.5 are the reference

def _reference_weight(ns, convert):
    log_norm = eigenvalues._in_type(
        DD(*np.array([eigenvalues._log_factorial(n) for n in ns]).T), convert
    ).reshape(-1, 1)
    return lambda r: np.exp(np.reshape(ns, (-1, 1)) * np.log(r) - r - log_norm)


def _reference_scaled_combo(sym, convert):
    scale, re, im, _ = symbols._scaled_factors(sym)
    in_type = eigenvalues._in_type
    factors = in_type(re, convert) + 1j * in_type(im, convert) if im.hi.any() else in_type(re, convert)
    offset = complex(math.ldexp(sym.offset.real, -scale), math.ldexp(sym.offset.imag, -scale))
    offset = offset.real if offset.imag == 0.0 else offset
    live = [k for k, c in enumerate(sym.coefficients) if c]

    def values(r):
        if not live:
            return offset
        decay = r * (sym.xi - 1.0)
        c = np.minimum(np.asarray(decay, dtype=float), symbols._LAG_START)
        t, prev, lag, terms = r * float(sym.xi), 0.0, np.exp(-convert(c)), 0.0
        for k in range(live[-1] + 1):
            if k:
                prev, lag = lag, ((2 * k - 1 - t) * lag - (k - 1) * prev) / k
            if sym.coefficients[k]:
                terms = factors[k] * lag + terms
        return offset + terms * np.exp(c - decay)

    return scale, values


def _reference_ldexp(x, k):
    """A real array, or a real double-double half by half, times 2^k."""
    return DD(np.ldexp(x.hi, k), np.ldexp(x.lo, k)) if isinstance(x, DD) else np.ldexp(x, k)


def _reference_combo_integrand(sym, ns, convert):
    (scale, values), weight = _reference_scaled_combo(sym, convert), _reference_weight(ns, convert)
    return lambda nodes: values(nodes.reshape(-1)) * _reference_ldexp(weight(nodes.reshape(-1)), scale)


def _reference_callable_integrand(sym, ns):
    weight = _reference_weight(ns, eigenvalues._to_float64)
    return lambda r: eval_symbol(sym, np.sqrt(r).ravel()) * weight(r.ravel())


def _reference_gk15_batch(f, convert, a, b, floor):
    xgk, wgk, wg7 = eigenvalues._gk15_rule(convert)
    a, b = convert(a), convert(b)
    width = b - a
    half = 0.5 * width
    center = 0.5 * (a + b)
    nodes = center[:, None] + half[:, None] * xgk[None, :]
    fx = f(nodes).reshape(-1, *nodes.shape)
    resk = half * (fx @ wgk)
    resg = half * (fx[..., 1::2] @ wg7)
    mean = (resk / width)[..., None]
    abs_half, abs_wgk = np.abs(half), np.abs(wgk)
    resabs = abs_half * (np.abs(fx) @ abs_wgk)
    resasc = abs_half * (np.abs(fx - mean) @ abs_wgk)
    diff = np.abs(resk - resg)
    spread = resasc > 0.0
    safe = np.where(spread, resasc, 1.0)
    err = np.where(spread, resasc * np.minimum(1.0, (200.0 * diff / safe) ** 1.5), diff)
    return resk, np.maximum(err, floor * resabs), resabs


def _bits(x) -> bytes:
    """Every entry's exact value as bytes: a double-double as hi and lo, a longdouble as two float64s.

    A longdouble's own bytes include padding that no arithmetic writes, so it is
    split into hi = float64(x) and lo = float64(x - hi), which is exact.
    """
    if isinstance(x, DD):
        return _bits(x.hi) + _bits(x.lo)
    x = np.asarray(x)
    if x.dtype.kind == "c":
        return _bits(x.real) + _bits(x.imag)
    if x.dtype != np.float64:
        hi = x.astype(np.float64)
        with np.errstate(invalid="ignore"):
            return hi.tobytes() + (x - hi).astype(np.float64).tobytes()
    return x.tobytes()


_PASSES = {
    "float64": eigenvalues._to_float64,
    "longdouble": eigenvalues._to_longdouble,
    "double-double": eigenvalues._to_double_double,
}


def _block_panels(sym, ns):
    """The panels and Gauss-Kronrod nodes (float64) of the block ns, as `_integrals` builds them."""
    lo, hi, _ = eigenvalues._windows(ns, sup_estimate(sym), QuadConfig().rel_tol)
    a, b = eigenvalues._grid_panels(sym, ns, lo.min(), hi.max())
    xgk = eigenvalues._gk15_rule(eigenvalues._to_float64)[0]
    return a, b, 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * xgk[None, :]


def _assert_same_bits(got, want, convert, a, b, nodes, rows, scale=0):
    """2^scale times the integrand got, and times its Gauss-Kronrod sums, has the bits of the reference want.

    The reference puts 2^scale into the weight at every node; exact in the
    normal range, so the bits agree wherever nothing leaves it.
    """
    assert _bits(symbols._ldexp(got(nodes), scale)) == _bits(want(nodes))
    floor = np.full((rows, 1), 1e-14)
    for new, old in zip(
        eigenvalues._gk15_batch(got, convert, a, b, floor), _reference_gk15_batch(want, convert, a, b, floor)
    ):
        assert _bits(symbols._ldexp(new, scale)) == _bits(old)


@pytest.mark.parametrize("tier", list(_PASSES))
@pytest.mark.parametrize(
    "sym",
    [
        with_limit_offset(combo_symbol([0.7, -1.3, 0.0, 0.4], 4), 0.25),
        with_limit_offset(combo_symbol([1.0, 0.5j, -0.25 + 0.125j], 3), -0.5j),
        LaguerreCombo(offset=1.5),
    ],
    ids=["real", "complex", "constant"],
)
def test_in_place_combo_kernels_keep_every_bit(sym, tier):
    # the integrand, and the Gauss-Kronrod sums over it, each times 2^scale,
    # equal the out-of-place formulas bit for bit in every pass's number type
    convert, ns = _PASSES[tier], list(range(40, 56))
    a, b, nodes = _block_panels(sym, ns)
    scale, values = symbols._scaled_combo(sym, convert)
    got = eigenvalues._integrand(values, ns, convert)
    want = _reference_combo_integrand(sym, ns, convert)
    _assert_same_bits(got, want, convert, a, b, eigenvalues._in_type(to_dd(nodes), convert), len(ns), scale)


@pytest.mark.parametrize(
    "evaluator",
    [
        lambda x: np.exp(-x * x),
        lambda x: np.exp(-x * x) * (np.cos(x) + 1j * np.sin(x)),
        lambda x: math.exp(-x * x),
    ],
    ids=["float", "complex", "scalar-only"],
)
def test_in_place_callable_kernels_keep_every_bit(evaluator):
    sym, ns = CallableSymbol(evaluator), list(range(10, 26))
    a, b, nodes = _block_panels(sym, ns)
    got = eigenvalues._integrand(eigenvalues._callable_values(sym), ns, eigenvalues._to_float64)
    want = _reference_callable_integrand(sym, ns)
    _assert_same_bits(got, want, eigenvalues._to_float64, a, b, nodes, len(ns))


def test_an_evaluator_may_run_the_quadrature_itself():
    # nothing is shared between calls: a callable whose evaluator runs
    # gamma_sequence gets the records of the two calls made separately
    inner = basic_symbol(2, 4)

    def records(seq):
        return [repr(entry) for entry in seq.entries]

    inner_alone = records(gamma_sequence(inner, 40, engine="quad"))
    seen = []

    def nested(x):
        seen.append(records(gamma_sequence(inner, 40, engine="quad")))
        return np.exp(-x * x)

    outer = records(gamma_sequence(CallableSymbol(nested), 40, engine="quad"))
    assert outer == records(gamma_sequence(CallableSymbol(lambda x: np.exp(-x * x)), 40, engine="quad"))
    assert seen and all(inner_seen == inner_alone for inner_seen in seen)


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quadrature_kernels_allocate_each_array_once():
    # a block of 32 indices, basic(8, 8) at n = 120..151, on its 74 panels:
    # one (indices x nodes) float64 array is 277 KB.  The integrand makes that
    # one array; _gk15_batch adds one magnitude buffer.  Besides them numpy's
    # buffered ufunc loops take up to one chunk per broadcast operand
    # (np.getbufsize() elements), and a few arrays have one entry per node or
    # per (index, panel).  The out-of-place formulas of 0.10.5 peaked at 2.26
    # and 3.31 times the array.
    sym, ns = basic_symbol(8, 8), list(range(120, 152))
    a, b, nodes = _block_panels(sym, ns)
    assert len(a) == 74
    array = len(ns) * nodes.size * 8
    chunk, per_node, per_panel = np.getbufsize() * 8, nodes.size * 8, len(ns) * len(a) * 8
    values = symbols._scaled_combo(sym, eigenvalues._to_float64)[1]
    integrand = eigenvalues._integrand(values, ns, eigenvalues._to_float64)
    floor = np.full((len(ns), 1), 1e-14)
    batch = functools.partial(eigenvalues._gk15_batch, integrand, eigenvalues._to_float64, a, b, floor)
    batch()  # builds the cached rule and factors
    assert _peak_bytes(lambda: integrand(nodes)) <= array + 2 * chunk + 8 * per_node
    assert _peak_bytes(batch) <= 2 * array + chunk + 8 * per_panel + 8 * per_node


# ---------------------------------------------------------------------------
# sequences

def test_gamma_sequence_closed():
    seq = gamma_sequence(basic_symbol(0, 2), 3)
    assert [v.real for v in seq.values] == [1.0, 0.5, 0.25, 0.125]
    assert all(entry.engine == "closed" for entry in seq.entries)


def test_gamma_sequence_zero_symbol():
    seq = gamma_sequence(LaguerreCombo(offset=0.0), 10)
    assert all(v == 0 for v in seq.values)


def test_gamma_sequence_quadrature_engine():
    sym = CallableSymbol(lambda x: np.exp(-(x**2)), sup_bound=1.0)
    seq = gamma_sequence(sym, 4)
    expected = [2.0 ** -(n + 1) for n in range(5)]
    assert all(entry.engine == "quad" for entry in seq.entries)
    assert seq.converged
    np.testing.assert_allclose([v.real for v in seq.values], expected, atol=1e-10)


def test_gamma_sequence_forced_engines():
    sym = basic_symbol(1, 4)
    closed = gamma_sequence(sym, 10, engine="closed")
    quad = gamma_sequence(sym, 10, engine="quad")
    for c, q in zip(closed.values, quad.values):
        assert abs(c - q) <= 1e-9
    with pytest.raises(ValueError):
        gamma_sequence(CallableSymbol(lambda x: x, 1.0), 3, engine="closed")
    with pytest.raises(ValueError):
        gamma_sequence(sym, 3, engine="warp")


def test_offset_combo_closed_form():
    sym = with_limit_offset(combo_symbol([1.0], 2), 2.0)
    seq = gamma_sequence(sym, 3)
    np.testing.assert_allclose(
        [v.real for v in seq.values], [3.0, 2.5, 2.25, 2.125]
    )
    assert has_closed_form(sym)
    # complex terms and offset, against the exact oracle
    coeffs = [0.5, -1.0, 0.25j]
    seq = gamma_sequence(with_limit_offset(combo_symbol(coeffs, 3), 0.125 - 1j), 30)
    assert_engine_matches_exact(coeffs, 3, 0.125 - 1j, seq.values, range(31))


# ---------------------------------------------------------------------------
# exponential averaging

def _averaged(g, j, sup_g, r):
    """E[g(sqrt(r + G))], G ~ Gamma(j, 1), by the rule the shift identity runs."""
    nodes, weights, _ = _averaging_rule(j, sup_g, QuadConfig().rel_tol, 1)
    return _average(g, np.array([r]), nodes, weights)[0]


def test_averaging_constant_has_unit_mass_kernel():
    for j in range(1, 4):
        got = _averaged(lambda x: np.full_like(x, 3.0), j, 3.0, 1.7)
        assert got == pytest.approx(3.0, abs=1e-9)


def test_averaging_square_example():
    # g(x) = x^2, so g(sqrt(r + G)) = r + G: level 1 gives r + 1; the bound
    # 100 covers r + G up to the rule's horizon (about 30)
    assert _averaged(lambda x: x**2, 1, 100.0, 2.0) == pytest.approx(3.0, abs=1e-8)
    assert _averaged(lambda x: x**2, 1, 100.0, 0.0) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("sup_g", [1.0, 8.0**9, 1e30])
def test_averaging_miss_bounds_the_tail_past_the_last_edge(sup_g):
    # the rule's error is at least sup|g| times the 50-digit Gamma(j, 1) mass
    # past its last edge; the last panel's 15 Kronrod nodes are mid -+ half * x_k
    x_max = eigenvalues._gk15_rule(eigenvalues._to_float64)[0][-1]
    for j in (1, 2, 3):
        nodes, _, miss = _averaging_rule(j, sup_g, QuadConfig().rel_tol, 1)
        mid, half = 0.5 * (nodes[-1] + nodes[-15]), 0.5 * (nodes[-1] - nodes[-15]) / x_max
        assert mpmath.mpf(miss) >= sup_g * _mp_tail(j, mid + half, True), j


# ---------------------------------------------------------------------------
# shift identity

def test_shift_identity_constant():
    assert shifted_gamma_residual(LaguerreCombo(offset=1.0), 1, 10) <= 1e-9


def test_shift_identity_basic_symbol():
    assert shifted_gamma_residual(basic_symbol(0, 2), 1, 20) < 1e-7
    # the Gaussian factor decays on the scale 1/xi, far faster than the
    # averaging kernel; the averaging rule has to resolve it
    assert shifted_gamma_residual(basic_symbol(5, 8), 1, 5) < 1e-6
    assert shifted_gamma_residual(basic_symbol(0, 16), 1, 5) < 1e-6
    # three averages at once: one Gamma(3, 1) integral
    assert shifted_gamma_residual(basic_symbol(3, 4), 3, 4) < 1e-6


def test_shift_identity_gaussian_level_two():
    sym = CallableSymbol(lambda x: np.exp(-(x**2)), sup_bound=1.0)
    assert shifted_gamma_residual(sym, 2, 10) < 1e-6
    # an infinite declared bound still gives the averaging rule a finite horizon
    sym = CallableSymbol(lambda x: np.exp(-(x**2)), sup_bound=math.inf)
    assert shifted_gamma_residual(sym, 2, 10) < 1e-6


def test_averaged_records_carry_the_averaging_error(monkeypatch):
    # the averaged constant 1.3 has gamma = 1.3 at every index; the rule's
    # weights miss unit mass by about 4e-12, which the quadrature of the
    # averaged symbol cannot see, so each record's estimate has to carry it
    records = []
    quadrature = eigenvalues.gamma_quadrature

    def spy(sym, n, cfg=None, **kwargs):
        records.append(quadrature(sym, n, cfg, **kwargs))
        return records[-1]

    monkeypatch.setattr(eigenvalues, "gamma_quadrature", spy)
    for j in (1, 2):
        records.clear()
        assert shifted_gamma_residual(LaguerreCombo(offset=1.3), j, 17) < 1e-9
        assert len(records) == 18
        for n, res in enumerate(records):
            assert abs(res.value - 1.3) <= res.est_abs_err, (j, n)


def test_shift_identity_validation():
    with pytest.raises(ValueError):
        shifted_gamma_residual(LaguerreCombo(offset=1.0), 0, 5)
