import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from exact import gamma_closed_form
from fockradial import eigenvalues
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
    # the type and move on to mpmath instead of trusting float64 nodes
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


def test_gauss_kronrod_constants_are_exact():
    # in each number type both rules have unit-interval mass 2 and integrate
    # x^k exactly up to their degree: 22 for Kronrod-15, 13 for the embedded
    # Gauss-7, to 4 eps of the type
    with mpmath.workdps(eigenvalues._MP_DPS):
        types = (
            (eigenvalues._to_float64, np.float64(1), np.finfo(float).eps),
            (eigenvalues._to_longdouble, np.longdouble(1), np.finfo(np.longdouble).eps),
            (eigenvalues._to_mpf, mpmath.mpf(1), mpmath.mpf(2) ** -mpmath.mp.prec),
        )
        for convert, one, eps in types:
            xgk, wgk, wg7 = eigenvalues._gk15_rule(convert)
            assert {type(v) for v in (*xgk, *wgk, *wg7)} == {type(one)}
            for nodes, weights, degree in ((xgk, wgk, 22), (xgk[1::2], wg7, 13)):
                for k in range(degree + 1):
                    exact = 2 * one / (k + 1) if k % 2 == 0 else 0 * one
                    assert abs((weights * nodes**k).sum() - exact) <= 4 * eps, (convert, k)


def test_mpmath_pass_error_covers_its_truncation():
    # one coarse panel, no splits: the error of r^3 e^-r / 3! on [0, 40] is
    # GK15 truncation, far above the pass's roundoff floor, and the estimate
    # has to cover it
    integrand = eigenvalues._mp_integrand(LaguerreCombo(offset=1.0), [3])
    cfg = QuadConfig(max_subdivisions=0)
    floor = eigenvalues._MP_FLOOR
    window = (np.array([0.0]), np.array([40.0]))
    with mpmath.workdps(eigenvalues._MP_DPS):
        (value,), (err,), *_ = eigenvalues._adaptive_gk(
            integrand, eigenvalues._to_mpf, [0.0], [40.0], cfg, floor, floor, window, [0]
        )
        exact = mpmath.gammainc(4, 0, 40) / 6
        miss = abs(value - exact)
    assert floor < miss <= err


def test_mpmath_rule_keeps_its_precision():
    # a rule first built at mpmath's default 15 digits must still carry
    # _MP_DPS digits, or the deepest cancellation cell is certified from a
    # 15-digit rule
    eigenvalues._gk15_rule.cache_clear()
    try:
        with mpmath.workdps(15):
            eigenvalues._gk15_rule(eigenvalues._to_mpf)
        res = gamma_quadrature(basic_symbol(12, 8), 0)
        assert res.converged
        assert abs(res.value) <= res.est_abs_err
    finally:
        eigenvalues._gk15_rule.cache_clear()


def test_unreachable_cancellation_fails_fast(monkeypatch):
    # 17 terms at xi = 40 cancel past 30 digits at n = 0: no pass can meet
    # the tolerance, so the mpmath pass evaluates its panels once and stops
    batches = []
    mp_integrand = eigenvalues._mp_integrand

    def counted(sym, n):
        integrand = mp_integrand(sym, n)
        return lambda r: batches.append(len(r)) or integrand(r)

    monkeypatch.setattr(eigenvalues, "_mp_integrand", counted)
    coeffs = np.random.default_rng(0).normal(size=17)
    res = gamma_quadrature(combo_symbol(coeffs, 40), 0)
    assert not res.converged
    assert abs(res.value - coeffs[0]) <= res.est_abs_err
    assert len(batches) == 1


def test_mpmath_pass_holds_the_deepest_cancellation():
    # at n = 0 these integrands cancel past the longdouble floor; only the
    # mpmath pass brings them within the tolerance
    for m, xi in ((12, 8), (9, 16)):
        assert abs(gamma_quadrature(basic_symbol(m, xi), 0).value) <= 1e-9, (m, xi)


def test_mp_integrand_matches_mpmath_laguerre():
    # against mpmath's own hypergeometric L_k, which shares no code with the
    # recurrence, at twice the digits; the terms may cancel, so the error
    # allowed is relative to the same sum taken with absolute values
    symbols = [
        basic_symbol(10, 8),
        combo_symbol(np.random.default_rng(0).normal(size=6), 40),
        LaguerreCombo(offset=1.0),
        LaguerreCombo(xi=3, coefficients=(0.5, 0.0, -1.0 + 0.25j), offset=0.125 - 1j),
        combo_symbol(np.random.default_rng(0).normal(size=17), 40),
    ]
    ns = (0, 1, 2, 5)
    for sym in symbols:
        with mpmath.workdps(eigenvalues._MP_DPS):
            nodes = [mpmath.mpf(k) * 3 / 5 for k in range(1, 11)]
            rows = eigenvalues._mp_integrand(sym, ns)(np.array(nodes, dtype=object))
        assert rows.shape == (len(ns), len(nodes))
        for n, got in zip(ns, rows):
            with mpmath.workdps(2 * eigenvalues._MP_DPS):
                for r, value in zip(nodes, got):
                    weight = r**n * mpmath.exp(-r) / mpmath.factorial(n)
                    terms = [
                        mpmath.mpmathify(complex(c)) * (-sym.xi) ** k * sym.xi
                        * mpmath.exp(-(sym.xi - 1) * r) * mpmath.laguerre(k, 0, sym.xi * r)
                        for k, c in enumerate(sym.coefficients)
                    ]
                    offset = mpmath.mpmathify(complex(sym.offset))
                    want = (mpmath.fsum(terms) + offset) * weight
                    scale = (mpmath.fsum(abs(t) for t in terms) + abs(offset)) * weight
                    assert abs(value - want) <= mpmath.mpf("1e-25") * scale, (sym, n, r)


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
    # a structured sequence shares the grid too: 1440 float64 points for
    # basic(4, 8) to n = 200, where one adaptive loop per index took 67620
    points = [0]
    evaluate = eigenvalues.eval_symbol

    def spy(sym, x):
        if np.asarray(x).dtype == np.float64:
            points[0] += np.size(x)
        return evaluate(sym, x)

    monkeypatch.setattr(eigenvalues, "eval_symbol", spy)
    seq = gamma_sequence(basic_symbol(4, 8), 200, engine="quad")
    assert points[0] < 5000, points[0]
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


def test_each_precision_tier_runs_once_per_block(monkeypatch):
    # the zero eigenvalues of basic(8, 8) at n < 8 need longdouble and mpmath;
    # the indices of a block that miss tau share each tier's one adaptive loop
    converts = []
    adaptive = eigenvalues._adaptive_gk

    def spy(f, convert, *args):
        converts.append(convert)
        return adaptive(f, convert, *args)

    monkeypatch.setattr(eigenvalues, "_adaptive_gk", spy)
    gamma_sequence(basic_symbol(8, 8), 31, engine="quad")
    assert converts == [eigenvalues._to_float64, eigenvalues._to_longdouble, eigenvalues._to_mpf]
    # and every record the shared passes certify lies within its estimate
    combo = combo_symbol(np.random.default_rng(2).normal(size=6), 40)
    for sym, n_max in ((basic_symbol(8, 8), 155), (combo, 45)):
        exact = closed_form_sequence(sym.coefficients, sym.xi, sym.offset, n_max).values
        for n, res in enumerate(gamma_sequence(sym, n_max, engine="quad").entries):
            assert not res.converged or abs(res.value - exact[n]) <= res.est_abs_err, (sym, n, res)


def test_log_factorial_is_correctly_rounded():
    # the weight's normalizer ln n!; math.lgamma(92) is 1.5 ulp off, a bias
    # every w_91 would carry
    with mpmath.workdps(50):
        for n in range(1001):
            assert eigenvalues._log_factorial(n) == float(mpmath.loggamma(n + 1)), n


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
    # weights miss unit mass by about 5e-12, which the quadrature of the
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
