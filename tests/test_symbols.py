import math

import numpy as np
import pytest

from fockradial.symbols import (
    CallableSymbol,
    LaguerreCombo,
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
    # log-space evaluation against the naive formula where it cannot overflow
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


def test_eval_validation():
    with pytest.raises(ValueError):
        eval_symbol(basic_symbol(0, 2), -1.0)
    with pytest.raises(ValueError):
        eval_symbol(basic_symbol(0, 2), float("nan"))


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
    assert sup_estimate(basic_symbol(0, 5)) == pytest.approx(5.0)
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
    for m, xi in ((0, 5), (3, 2), (12, 8), (40, 16)):
        assert sup_estimate(basic_symbol(m, xi)) == pytest.approx(float(xi) ** (m + 1), rel=1e-13)
        assert sup_estimate(basic_symbol(m, xi)) == pytest.approx(abs(eval_symbol(basic_symbol(m, xi), 0.0)))
    # past the float range the bound is inf, not an error
    assert sup_estimate(combo_symbol(np.ones(528), 1_900_000)) == math.inf
    assert sup_estimate(basic_symbol(600, 10**6)) == math.inf


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
    ):
        sym = symbol_from_json(obj)
        assert symbol_from_json(symbol_to_json(sym)) == sym


def test_symbol_json_rejects_garbage():
    with pytest.raises(ValueError):
        symbol_from_json({})
    with pytest.raises(ValueError):
        symbol_from_json({"type": "warp_drive"})
    with pytest.raises(ValueError):
        symbol_from_json({"type": "laguerre_basic", "m": 1})
    with pytest.raises(ValueError):
        symbol_from_json({"type": "combo", "xi": 2, "coefficients": []})
    with pytest.raises(ValueError):
        symbol_to_json(CallableSymbol(lambda x: x, 1.0))
