import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockradial import eigenvalues
from fockradial.eigenvalues import (
    _WG7,
    _WGK,
    _XGK,
    ClosedForm,
    QuadConfig,
    Quadrature,
    averaging_operator,
    closed_form_sequence,
    gamma_closed_form,
    gamma_closed_form_float,
    gamma_combo_closed_form,
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
    for m in range(6):
        for xi in (2, 4, 16):
            for n in range(0, 40):
                exact = gamma_closed_form(m, xi, n)
                assert gamma_closed_form_float(m, xi, n) == pytest.approx(
                    float(exact), rel=1e-15, abs=0.0
                )


def test_gamma_combo_closed_form_examples():
    assert gamma_combo_closed_form([1.0], 2, 0.0, 3) == pytest.approx(0.125)
    assert gamma_combo_closed_form([], 2, 5.0, 17) == 5.0
    assert gamma_combo_closed_form([1.0, -1.0], 2, 0.0, 1) == pytest.approx(-0.5)


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
    # |gamma(n)| <= grid-estimated sup of the symbol
    for m in range(6):
        for xi in (2, 4):
            sym = basic_symbol(m, xi)
            bound = sup_estimate(sym) + 1e-9
            for n in range(51):
                assert abs(gamma_closed_form_float(m, xi, n)) <= bound


# ---------------------------------------------------------------------------
# quadrature

def test_gamma_quadrature_constant_one():
    one = LaguerreCombo(offset=1.0)
    for n in (0, 1, 7, 63, 200, 500):
        res = gamma_quadrature(one, n)
        assert abs(res.value - 1.0) <= 1e-10
        assert res.converged


def test_gamma_quadrature_gaussian_callable():
    # g(x) = e^{-x^2} has eigenvalues 2^{-(n+1)}
    sym = CallableSymbol(lambda x: np.exp(-(x**2)), sup_bound=1.0)
    for n in range(5):
        res = gamma_quadrature(sym, n)
        assert abs(res.value - 2.0 ** -(n + 1)) <= 1e-10


def test_gamma_quadrature_cross_engine():
    res = gamma_quadrature(basic_symbol(1, 4), 3)
    assert abs(res.value - 3 / 16) <= 1e-8


def test_gamma_quadrature_cancellation_cells():
    # closed form is exactly zero below the degree; the quadrature must hold
    # the absolute tolerance despite integrand mass ~ xi^m
    for n in range(4):
        res = gamma_quadrature(basic_symbol(10, 8), n)
        assert abs(res.value) <= 1e-9


def test_gamma_quadrature_linearity():
    rng = np.random.default_rng(2)
    coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
    combo = combo_symbol(coeffs, 4)
    for n in (0, 2, 7):
        parts = sum(
            c * float(gamma_closed_form(k, 4, n)) for k, c in enumerate(coeffs)
        )
        # closed combo vs sum of closed parts
        assert abs(gamma_combo_closed_form(coeffs, 4, 0.0, n) - parts) <= 1e-10
        # quadrature of the combo vs the same sum
        assert abs(gamma_quadrature(combo, n).value - parts) <= 1e-9


def test_weight_normalization():
    # gamma of the constant-1 symbol is the weight's total mass
    one = LaguerreCombo(offset=1.0)
    for n in (0, 5, 50, 500):
        assert abs(gamma_quadrature(one, n).value - 1.0) <= 1e-10


def test_gauss_kronrod_constants_are_exact():
    # both rules have unit-interval mass 2 and integrate x^k exactly up to
    # their degree: 22 for Kronrod-15, 13 for the embedded Gauss-7
    ulps = 4 * np.spacing(2.0)
    gauss_nodes = _XGK[1::2]
    assert abs(_WGK.sum() - 2.0) <= ulps
    assert abs(_WG7.sum() - 2.0) <= ulps
    for nodes, weights, degree in ((_XGK, _WGK, 22), (gauss_nodes, _WG7, 13)):
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(weights @ nodes**k - exact) <= ulps, (len(nodes), k)


def test_cancellation_cells_without_mpmath(monkeypatch):
    # the criterion-1 cells whose cancellation reaches past the longdouble
    # tier must hold their tolerance when the mpmath tier is unavailable
    monkeypatch.setattr(eigenvalues, "_mp", None)
    for m, n_top in ((8, 1), (9, 2), (10, 4)):
        sym = basic_symbol(m, 8)
        for n in range(n_top + 1):
            assert abs(gamma_quadrature(sym, n).value) <= 1e-9, (m, n)


def test_quad_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadConfig(peak_window_sigmas=2.0)
    with pytest.raises(ValueError):
        QuadConfig(max_subdivisions=-1)


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
    assert all(isinstance(tag, ClosedForm) for tag in seq.engines)


def test_gamma_sequence_zero_symbol():
    seq = gamma_sequence(LaguerreCombo(offset=0.0), 10)
    assert all(v == 0 for v in seq.values)


def test_gamma_sequence_quadrature_engine():
    sym = CallableSymbol(lambda x: np.exp(-(x**2)), sup_bound=1.0)
    seq = gamma_sequence(sym, 4)
    expected = [2.0 ** -(n + 1) for n in range(5)]
    assert all(isinstance(tag, Quadrature) for tag in seq.engines)
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
    # complex terms and offset, against the per-index closed form; both sit
    # within (2n + N + 1) ulps of sums of magnitude <= 3
    coeffs = [0.5, -1.0, 0.25j]
    seq = gamma_sequence(with_limit_offset(combo_symbol(coeffs, 3), 0.125 - 1j), 30)
    for n in range(31):
        want = gamma_combo_closed_form(coeffs, 3, 0.125 - 1j, n)
        assert abs(seq.values[n] - want) <= 1e-13


# ---------------------------------------------------------------------------
# averaging operators

def test_averaging_constant_has_unit_mass_kernel():
    for j in range(4):
        assert averaging_operator(lambda x: 3.0, j, 1.7) == pytest.approx(3.0, abs=1e-9)


def test_averaging_level_zero_is_substitution():
    assert averaging_operator(lambda x: math.cos(x), 0, 9.0) == pytest.approx(
        math.cos(3.0)
    )


def test_averaging_square_example():
    # g(x) = x^2: level 0 gives u, level 1 gives r + 1
    assert averaging_operator(lambda x: x**2, 1, 2.0) == pytest.approx(3.0, abs=1e-8)
    assert averaging_operator(lambda x: x**2, 1, 0.0) == pytest.approx(1.0, abs=1e-8)


def test_averaging_validation():
    with pytest.raises(ValueError):
        averaging_operator(lambda x: x, -1, 1.0)
    with pytest.raises(ValueError):
        averaging_operator(lambda x: x, 1, -1.0)


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


def test_shift_identity_validation():
    with pytest.raises(ValueError):
        shifted_gamma_residual(LaguerreCombo(offset=1.0), 0, 5)
