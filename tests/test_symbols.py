import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockradial.symbols import (
    CallableSymbol,
    LaguerreCombo,
    _scaled_combo,
    _scaled_factors,
    basic_symbol,
    combo_symbol,
    eval_symbol,
    sup_estimate,
    symbol_from_json,
    symbol_to_json,
    with_limit_offset,
)


def test_basic_symbol_values_at_zero():
    # a(x) = (-1)^m xi^(m+1) e^{-(xi-1)x^2} L_m(xi x^2)
    assert eval_symbol(basic_symbol(0, 2), 0.0) == pytest.approx(2.0)
    assert eval_symbol(basic_symbol(1, 2), 0.0) == pytest.approx(-4.0)


def test_basic_symbol_closed_values():
    assert eval_symbol(basic_symbol(0, 2), 1.0) == pytest.approx(2 * math.exp(-1))
    # xi x^2 = 1 at x = 1/2 for xi = 4, and L_1(1) = 0
    assert eval_symbol(basic_symbol(1, 4), 0.5) == 0.0


def test_basic_symbol_decays_to_zero():
    for m in (0, 3, 10):
        for xi in (2, 5):
            sym = basic_symbol(m, xi)
            far = abs(eval_symbol(sym, 40.0))
            assert far < 1e-300
            near = abs(eval_symbol(sym, 0.0))
            assert abs(eval_symbol(sym, 20.0)) < 1e-100 * max(near, 1.0)


def test_basic_symbol_brute_force_grid():
    # the scaled form against the naive formula where it cannot overflow
    grid = np.linspace(0.0, 3.0, 31)
    for m in (0, 1, 4):
        for xi in (2, 3):
            sym = basic_symbol(m, xi)
            from fockradial.laguerre import laguerre_eval

            naive = (
                (-1.0) ** m
                * xi ** (m + 1)
                * np.exp(-(xi - 1) * grid**2)
                * laguerre_eval(m, xi * grid**2)
            )
            got = eval_symbol(sym, grid)
            np.testing.assert_allclose(got, naive, rtol=1e-12, atol=1e-300)


def _basic_exact(m, xi, x):
    """basic(m, xi)(x) from mpmath's hypergeometric L_m at 60 digits.

    zeroprec lets the series return an exact zero, such as L_1(1), which it
    cannot reach to 60 digits relative and would raise at.
    """
    with mpmath.workdps(60):
        t = xi * mpmath.mpf(x) ** 2
        laguerre = mpmath.laguerre(m, 0, t, zeroprec=400)
        return (-1) ** m * mpmath.mpf(xi) ** (m + 1) * mpmath.exp(-t * (xi - 1) / xi) * laguerre


def test_overflowing_terms_give_nan_not_zero():
    # the scaled recurrence of L_997(2 x^2) e^-c starts from e^-600 and
    # overflows float64 between x^2 = 1300 and 1500; there the value is nan,
    # not 0 (mpmath at 60 digits: -1.39e298 at x^2 = 1500), and below it the
    # value is right
    sym = basic_symbol(997, 2)
    for x2 in (1500, 1600):
        assert math.isnan(eval_symbol(sym, math.sqrt(x2))), x2
    x = math.sqrt(400)
    assert eval_symbol(sym, x) == pytest.approx(float(_basic_exact(997, 2, x)), rel=1e-9)
    for x2 in (1000, 1300):
        x = math.sqrt(x2)
        assert eval_symbol(sym, x) == pytest.approx(float(_basic_exact(997, 2, x)), rel=1e-12), x2
    # a point where every term is exactly 0 still gives 0
    assert eval_symbol(basic_symbol(1, 4), 0.5) == 0.0


def test_combo_matches_sum_of_basics():
    # explicit factored form against the term-by-term sum
    rng = np.random.default_rng(1)
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
    combo = combo_symbol(coeffs, 3)
    grid = np.linspace(0.0, 4.0, 41)
    parts = sum(
        c * eval_symbol(basic_symbol(k, 3), grid) for k, c in enumerate(coeffs)
    )
    got = eval_symbol(combo, grid)
    scale = np.max(np.abs(parts))
    np.testing.assert_allclose(got, parts, rtol=1e-12, atol=1e-12 * scale)


def test_combo_examples():
    grid = np.linspace(0.0, 5.0, 21)
    single = combo_symbol([1.0], 2)
    np.testing.assert_array_equal(
        eval_symbol(single, grid), eval_symbol(basic_symbol(0, 2), grid)
    )
    zero = combo_symbol([0.0, 0.0], 2)
    assert np.all(eval_symbol(zero, grid) == 0.0)
    assert eval_symbol(combo_symbol([1.0, 1.0], 2), 0.0) == pytest.approx(-2.0)
    # the basic symbol is the combination with one-hot coefficients
    assert basic_symbol(3, 8) == combo_symbol([0, 0, 0, 1], 8)


def test_offset_combo():
    combo = combo_symbol([1.0], 2)
    offset = with_limit_offset(combo, 1.0)
    assert eval_symbol(offset, 0.0) == pytest.approx(3.0)
    zero_offset = with_limit_offset(combo, 0.0)
    assert eval_symbol(zero_offset, 2.0) == pytest.approx(eval_symbol(combo, 2.0))
    constantish = with_limit_offset(combo_symbol([0.0], 2), 3.0)
    assert eval_symbol(constantish, 7.0) == pytest.approx(3.0)


def test_constant_and_callable():
    assert eval_symbol(LaguerreCombo(offset=2.0 - 1.0j), 11.0) == 2.0 - 1.0j
    sym = CallableSymbol(lambda x: np.exp(-x), sup_bound=1.0)
    assert eval_symbol(sym, 2.0) == pytest.approx(math.exp(-2))
    scalar_only = CallableSymbol(lambda x: math.exp(-float(x)), sup_bound=1.0)
    got = eval_symbol(scalar_only, np.array([0.0, 1.0]))
    np.testing.assert_allclose(got, [1.0, math.exp(-1)])
    # an array call of the wrong shape falls back to one call per point
    summed = CallableSymbol(lambda x: np.sum(np.exp(-np.asarray(x))), sup_bound=1.0)
    assert eval_symbol(summed, np.array([0.0, 1.0])).tolist() == [1.0, math.exp(-1.0)]


def test_eval_validation():
    with pytest.raises(ValueError):
        eval_symbol(basic_symbol(0, 2), -1.0)
    with pytest.raises(ValueError):
        eval_symbol(basic_symbol(0, 2), float("nan"))
    with pytest.raises(TypeError, match="not a symbol"):
        eval_symbol(lambda x: x, 1.0)
    # integer points are read as float64
    sym = basic_symbol(1, 4)
    assert eval_symbol(sym, 2) == eval_symbol(sym, 2.0)
    assert eval_symbol(sym, [0, 3]).tolist() == eval_symbol(sym, np.array([0.0, 3.0])).tolist()


def test_eval_symbol_finds_its_scaled_form_again():
    # one converter per number type, so repeated calls hit _scaled_combo's cache
    # and leave the quadrature's entries in it
    sym = basic_symbol(3, 4)
    _scaled_combo.cache_clear()
    for _ in range(100):
        eval_symbol(sym, 1.5)
    assert _scaled_combo.cache_info().hits == 99


@pytest.mark.parametrize("square", [100.0, 150.0])
def test_float32_x_evaluates_in_float64(square):
    # in float32 the recurrence's first row e^-(xi - 1) x^2 is subnormal at x^2 = 100
    # and 0 at 150; x is converted before it is squared, so the value is the float64
    # one at the same x
    x = np.float32(math.sqrt(square))
    got = eval_symbol(basic_symbol(200, 2), x)
    assert got.dtype == np.float64
    assert got == eval_symbol(basic_symbol(200, 2), float(x)) != 0.0


def test_constructor_validation():
    with pytest.raises(ValueError):
        basic_symbol(0, 1)
    with pytest.raises(ValueError):
        basic_symbol(-1, 2)
    with pytest.raises(ValueError):
        basic_symbol(0, 2.5)
    with pytest.raises(ValueError):
        combo_symbol([], 2)
    with pytest.raises(ValueError):
        with_limit_offset(CallableSymbol(lambda x: x, 1.0), 1.0)


def test_callable_sup_bound_is_checked_for_form():
    # a negative or nan bound made an impossible certificate: est_abs_err
    # -5e-12 or nan, with converged=True
    for bad in (math.nan, -1.0, True):
        with pytest.raises(ValueError, match="sup_bound"):
            CallableSymbol(lambda x: np.exp(-x * x), sup_bound=bad)
    for good in (0, 1.0, math.inf):
        sym = CallableSymbol(lambda x: np.exp(-x * x), sup_bound=good)
        assert sym.sup_bound == good and type(sym.sup_bound) is float


def test_structured_symbol_values_must_be_finite():
    # json reads NaN and Infinity, which would otherwise come out as nan eigenvalues
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            combo_symbol([1.0, bad], 2)
        with pytest.raises(ValueError, match="finite"):
            LaguerreCombo(offset=bad)
        with pytest.raises(ValueError, match="finite"):
            with_limit_offset(basic_symbol(1, 2), bad)


def test_sup_estimate():
    assert sup_estimate(LaguerreCombo(offset=-3.0)) == 3.0
    assert sup_estimate(CallableSymbol(lambda x: x, sup_bound=7.0)) == 7.0
    # a_{0,xi} peaks at 0 with value xi
    assert sup_estimate(basic_symbol(0, 5)) == 5.0
    combo = combo_symbol([1.0], 2)
    assert sup_estimate(with_limit_offset(combo, 1.0)) == pytest.approx(
        sup_estimate(combo) + 1.0
    )


def test_sup_estimate_is_an_upper_bound():
    # the bound is reached at 0 when every term has the same sign there, so
    # allow the rounding of both sides
    slack = 1.0 + 1e-14
    # the pair of terms peaks away from 0, between the points of a coarse grid
    pair = combo_symbol([1.0, 1.0], 2)
    dense = np.linspace(0.0, 5.0, 10**6)
    assert np.max(np.abs(eval_symbol(pair, dense))) <= sup_estimate(pair)
    rng = np.random.default_rng(4)
    grid = np.linspace(0.0, 6.0, 20001)
    for _ in range(100):
        size = int(rng.integers(2, 6))
        coeffs = rng.normal(size=size) + 1j * rng.normal(size=size) * rng.integers(0, 2)
        sym = with_limit_offset(combo_symbol(coeffs, int(rng.integers(2, 9))), rng.normal())
        assert np.max(np.abs(eval_symbol(sym, grid))) <= slack * sup_estimate(sym), coeffs
    # a basic symbol peaks at 0, where it is xi^(m+1)
    for m, xi in ((0, 5), (3, 2)):
        assert sup_estimate(basic_symbol(m, xi)) == pytest.approx(float(xi) ** (m + 1), rel=1e-13)
        assert sup_estimate(basic_symbol(m, xi)) == pytest.approx(abs(eval_symbol(basic_symbol(m, xi), 0.0)))
    # where xi^(m+1) is a power of two both sides are exact, and the bound
    # is the peak itself, not a rounding below it
    for m, xi in ((12, 8), (40, 16), (994, 2)):
        sym = basic_symbol(m, xi)
        assert sup_estimate(sym) == float(xi) ** (m + 1) == abs(eval_symbol(sym, 0.0)), (m, xi)
    # otherwise the exact sum is rounded up, never below the peak
    assert sup_estimate(basic_symbol(187, 40)) >= abs(eval_symbol(basic_symbol(187, 40), 0.0))
    # past the float range the bound is inf, not an error
    assert sup_estimate(combo_symbol(np.ones(528), 1_900_000)) == math.inf
    assert sup_estimate(basic_symbol(600, 10**6)) == math.inf


def _scaled_reference(sym):
    """(scale, exact factors c_k (-xi)^k xi 2^-scale, exact sup) of _scaled_factors, from 60-digit mpmath."""
    with mpmath.workdps(60):
        terms = [mpmath.mpmathify(c) * (-sym.xi) ** k * sym.xi for k, c in enumerate(sym.coefficients)]
        total = mpmath.fsum(abs(t) for t in terms) + abs(mpmath.mpmathify(sym.offset))
        scale = max(0, int(mpmath.frexp(total)[1]) - 1) if total else 0
        return scale, [t * mpmath.ldexp(1, -scale) for t in terms], total


def test_scaled_factors_match_60_digit_mpmath():
    # each double-double factor is the exact factor rounded twice, hi to the
    # nearest float and lo the rest to the nearest float; sup is at least the
    # exact sum and within one ulp of it, with complex moduli bounded from
    # exact parts and past the float range inf
    rng = np.random.default_rng(26)
    cases = [
        basic_symbol(12, 8),
        basic_symbol(187, 40),
        LaguerreCombo(offset=1.0 + 2.0j),
        with_limit_offset(combo_symbol([1.0, 2.0**-60, -3.0], 3), 1 / 3),
        combo_symbol([1e-300, 1 / 7 + 1j / 3, 0.0, -1e-300j], 1_937_717),
        combo_symbol(np.ones(528), 1_900_000),
    ]
    for _ in range(40):
        size = int(rng.integers(1, 18))
        coeffs = rng.normal(size=size) * 10.0 ** rng.integers(-8, 8, size=size)
        coeffs = coeffs + 1j * rng.normal(size=size) * rng.integers(0, 2)
        offset = complex(rng.normal(), rng.normal() * rng.integers(0, 2)) * rng.integers(0, 2)
        cases.append(with_limit_offset(combo_symbol(coeffs, int(rng.choice([2, 5, 40, 999]))), offset))
    # |0.75 + i| = 1.25 is exact, and so is the bound
    assert sup_estimate(combo_symbol([0.75 + 1j], 4)) == 5.0
    for sym in cases:
        scale, re, im, sup = _scaled_factors(sym)
        want_scale, factors, total = _scaled_reference(sym)
        assert scale == want_scale, sym
        with mpmath.workdps(60):
            for part, got in ((mpmath.re, re), (mpmath.im, im)):
                for exact, hi, lo in zip(factors, got.hi, got.lo):
                    assert hi == float(part(exact)) and lo == float(part(exact) - hi), sym
            if total > mpmath.mpf(np.finfo(float).max):
                assert sup == math.inf, sym
            else:
                assert total <= sup and sup - total <= math.ulp(sup), sym


_coefficients = st.lists(
    st.builds(complex, st.floats(-1.0, 1.0), st.one_of(st.just(0.0), st.floats(-1.0, 1.0))),
    min_size=1,
    max_size=30,
)


def _combo_exact(sym, x):
    """sym at the float x from mpmath's hypergeometric L_k, at 60 digits."""
    with mpmath.workdps(60):
        terms = (mpmath.mpmathify(c) * _basic_exact(k, sym.xi, x) for k, c in enumerate(sym.coefficients) if c)
        return mpmath.mpmathify(sym.offset) + mpmath.fsum(terms)


def _exact_longdouble(v):
    """A longdouble (or float64) value as an exact mpmath number: hi + lo, each a float64."""
    hi = float(v)
    return mpmath.mpf(hi) + mpmath.mpf(float(v - np.longdouble(hi)))


@settings(max_examples=40, deadline=None)
@given(coeffs=_coefficients, xi=st.integers(2, 40), p=st.floats(-1.0, 1.0), x=st.floats(0.0, 8.0))
@example(coeffs=[0j, 1 + 0j], xi=4, p=0.0, x=0.5)  # basic(1, 4) at L_1(1) = 0
def test_eval_symbol_matches_mpmath_within_the_sup(coeffs, xi, p, x):
    # the scaled form against 60-digit mpmath, to 1e-13 of the sup bound
    sym = with_limit_offset(combo_symbol(coeffs, xi), p)
    sup = sup_estimate(sym)
    assert abs(eval_symbol(sym, x) - complex(_combo_exact(sym, x))) <= 1e-13 * sup


@settings(max_examples=20, deadline=None)
@given(coeffs=_coefficients, xi=st.integers(2, 40), x=st.floats(0.0, 8.0))
@example(coeffs=[2.225073858507e-311 + 0j], xi=2, x=1.0)  # a subnormal sup: the relative bound alone is 4.8e-328
@example(coeffs=[1.1125369292536007e-308 + 0j], xi=2, x=1.0)
def test_eval_symbol_keeps_longdouble(coeffs, xi, x):
    # longdouble input runs the scaled form in longdouble, to 100 of its eps
    # times the sup, plus the subnormal roundoff no relative bound covers:
    # the float64 halves of each factor of _scaled_factors, and the test's
    # float64 reading of the value, each round by up to 2^-1074 per part
    # once they are subnormal, times the 2^scale the value is scaled back by
    sym = combo_symbol(coeffs, xi)
    got = eval_symbol(sym, np.array([x], dtype=np.longdouble))
    assert got.dtype in (np.longdouble, np.clongdouble)
    exact = _combo_exact(sym, x)
    with mpmath.workdps(60):
        error = abs(_exact_longdouble(got[0].real) + 1j * _exact_longdouble(got[0].imag) - exact)
    subnormal = 2 * (len(coeffs) + 1) * math.ldexp(1.0, _scaled_factors(sym)[0] - 1074)
    assert error <= 100 * float(np.finfo(np.longdouble).eps) * sup_estimate(sym) + subnormal


def test_symbol_json_roundtrip():
    for sym in (
        LaguerreCombo(offset=1.5),
        LaguerreCombo(offset=1.0 + 2.0j),
        basic_symbol(3, 8),
        combo_symbol([1.0, -0.5, 0.25j], 4),
        with_limit_offset(combo_symbol([1.0, 2.0], 2), 0.5 - 1.0j),
    ):
        assert symbol_from_json(symbol_to_json(sym)) == sym
    # every schema entry survives a round trip through the one symbol type
    for obj in (
        {"type": "constant", "value": [0.5, -2.0]},
        {"type": "laguerre_basic", "m": 0, "xi": 2},
        {"type": "combo", "xi": 2, "coefficients": [1.0]},
        {"type": "combo", "xi": 5, "coefficients": [0.0, 0.0, 1.0], "offset": 0.0},
        {"type": "combo", "xi": 3, "coefficients": [[0.5, 1.0], -1.0], "offset": 2.0},
        {"type": "laguerre_basic", "m": 1, "xi": 4, "offset": 0.5},
        {"type": "constant", "value": 1.0, "offset": [0.0, 2.0]},
    ):
        sym = symbol_from_json(obj)
        assert symbol_from_json(symbol_to_json(sym)) == sym
    # an offset is read for every type: it adds to the symbol, and a symbol that
    # carries one is written as a combo (or a constant) and read back the same
    with_offset = symbol_from_json({"type": "laguerre_basic", "m": 1, "xi": 4, "offset": 0.5})
    assert with_offset == with_limit_offset(basic_symbol(1, 4), 0.5)
    assert symbol_to_json(with_offset) == {"type": "combo", "xi": 4, "coefficients": [0.0, 1.0], "offset": 0.5}
    assert symbol_from_json({"type": "constant", "value": 1.0, "offset": 2.0}) == LaguerreCombo(offset=3.0)


def test_symbol_json_rejects_garbage():
    with pytest.raises(ValueError):
        symbol_from_json({})
    with pytest.raises(ValueError):
        symbol_from_json({"type": "warp_drive"})
    with pytest.raises(ValueError):
        symbol_from_json({"type": "laguerre_basic", "m": 1})
    with pytest.raises(ValueError):
        symbol_from_json({"type": "combo", "xi": 2, "coefficients": []})
    with pytest.raises(ValueError, match="constant symbol needs a 'value'"):
        symbol_from_json({"type": "constant"})
    with pytest.raises(ValueError, match="cannot parse scalar"):
        symbol_from_json({"type": "laguerre_basic", "m": 1, "xi": 4, "offset": "half"})
    with pytest.raises(ValueError):
        symbol_to_json(CallableSymbol(lambda x: x, 1.0))
