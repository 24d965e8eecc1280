import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from exact import laguerre_coeffs, laguerre_exact, laguerre_moment
from fockradial.laguerre import laguerre_eval, laguerre_eval_all


def test_degree_zero_is_constant_one():
    assert laguerre_eval(0, 3.7) == 1.0
    assert laguerre_eval(0, 0.0) == 1.0


def test_low_degree_values():
    assert laguerre_eval(1, 2.0) == -1.0
    # 1 - 2x + x^2/2 at x = 2
    assert laguerre_eval(2, 2.0) == -1.0


def test_coefficients_examples():
    assert laguerre_coeffs(0) == [Fraction(1)]
    assert laguerre_coeffs(1) == [Fraction(1), Fraction(-1)]
    assert laguerre_coeffs(3) == [
        Fraction(1),
        Fraction(-3),
        Fraction(3, 2),
        Fraction(-1, 6),
    ]


def test_constant_coefficient_is_one():
    for m in range(21):
        assert laguerre_coeffs(m)[0] == 1


def test_recurrence_matches_exact_horner():
    # the exact-rational Horner sum is the oracle for the float recurrence
    grid = np.linspace(0.0, 50.0, 26)
    for m in range(21):
        for x in grid:
            exact = float(laguerre_exact(m, float(x)))
            rec = laguerre_eval(m, float(x))
            assert abs(rec - exact) <= 1e-12 * max(1.0, abs(exact))


def test_eval_all_matches_single_evals():
    grid = np.linspace(0.0, 30.0, 7)
    table = laguerre_eval_all(10, grid)
    assert table.shape == (11, 7)
    for m in range(11):
        np.testing.assert_allclose(table[m], laguerre_eval(m, grid), rtol=1e-13)


def _out_of_place_rows(m_max: int, t: np.ndarray) -> list[np.ndarray]:
    """L_0(t), ..., L_m_max(t) by ((2k - 1 - t) L_(k-1) - (k - 1) L_(k-2)) / k, each row a new array."""
    rows = [np.ones_like(t), 1 - t]
    for k in range(2, m_max + 1):
        rows.append(((2 * k - 1 - t) * rows[-1] - (k - 1) * rows[-2]) / k)
    return rows[: m_max + 1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.longdouble])
def test_evaluators_match_the_out_of_place_recurrence_bit_for_bit(dtype):
    # the evaluators step three recycled rows in place, in x's type; the values
    # are those of the plain recurrence, compared by value so longdouble's
    # padding bytes do not count (|L_150| <= e^75 on [0, 150] stays in float32's range)
    t = np.concatenate([np.linspace(0.0, 150.0, 301), np.random.default_rng(3).uniform(0.0, 60.0, 200)]).astype(dtype)
    rows = _out_of_place_rows(150, t)
    table = laguerre_eval_all(150, t)
    assert table.dtype == dtype and all(map(np.array_equal, table, rows))
    for m in (0, 1, 2, 3, 17, 150):
        row = laguerre_eval(m, t)
        assert row.dtype == dtype and np.array_equal(row, rows[m])
    if dtype == np.float64:
        assert [laguerre_eval(40, x) for x in t[:50].tolist()] == rows[40][:50].tolist()


def test_single_degree_keeps_two_rows():
    # L_200 on 10 000 points needs three rows of the recurrence (80 kB each),
    # not the 201-row table of laguerre_eval_all (16 MB)
    grid = np.linspace(0.0, 50.0, 10_000)
    tracemalloc.start()
    try:
        row = laguerre_eval(200, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000, peak
    assert np.array_equal(row, laguerre_eval_all(200, grid)[200])


def test_orthogonality_spot_check():
    # independent engine: scipy's adaptive quadrature against the recurrence
    for i in range(9):
        for j in range(i, 9):
            val, _ = quad(
                lambda r: math.exp(-r) * laguerre_eval(i, r) * laguerre_eval(j, r),
                0.0,
                np.inf,
            )
            expected = 1.0 if i == j else 0.0
            assert abs(val - expected) <= 1e-8


def test_moment_examples():
    assert laguerre_moment(0, 0) == 1
    assert laguerre_moment(1, 0) == 0
    assert laguerre_moment(2, 3) == 18


def test_moment_matches_numeric_quadrature():
    for m in range(6):
        for n in range(6):
            val, _ = quad(
                lambda r: math.exp(-r) * laguerre_eval(m, r) * r**n, 0.0, np.inf
            )
            exact = float(laguerre_moment(m, n))
            assert abs(val - exact) <= 1e-8 * max(1.0, abs(exact))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 30), st.integers(0, 30))
def test_moment_vanishes_above_diagonal(m, n):
    if m > n:
        assert laguerre_moment(m, n) == 0
    else:
        assert laguerre_moment(m, n) != 0


def test_invalid_arguments():
    with pytest.raises(ValueError):
        laguerre_eval(-1, 1.0)
    with pytest.raises(ValueError):
        laguerre_eval(2, float("inf"))
    with pytest.raises(ValueError):
        laguerre_eval(2, float("nan"))
    with pytest.raises(ValueError):
        laguerre_eval(2.5, 1.0)
