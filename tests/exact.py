"""Exact rational reference values that the float paths are tested against.

Nothing here rounds: Laguerre coefficients, their Horner evaluation and
exponential moments are Fractions, and so is the closed-form eigenvalue of
the Laguerre-Gaussian symbol.  Binary floats convert to Fraction exactly, so
`float(...)` of any value below is the correctly rounded float.
"""

from fractions import Fraction
from math import comb, factorial


def laguerre_coeffs(m: int) -> list[Fraction]:
    """Coefficients [c_0, ..., c_m] of L_m, with c_k = (-1)^k binom(m, k) / k!."""
    return [Fraction((-1) ** k * comb(m, k), factorial(k)) for k in range(m + 1)]


def laguerre_exact(m: int, x) -> Fraction:
    """L_m(x) by Horner's rule in rational arithmetic, free of rounding and cancellation."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(laguerre_coeffs(m)):
        acc = acc * x + c
    return acc


def laguerre_moment(m: int, n: int) -> Fraction:
    """integral_0^oo L_m(r) r^n e^-r dr: 0 for m > n, else (-1)^m (n!)^2 / ((n - m)! m!)."""
    if m > n:
        return Fraction(0)
    return Fraction((-1) ** m * factorial(n) ** 2, factorial(n - m) * factorial(m))


def gamma_closed_form(m: int, xi: int, n: int) -> Fraction:
    """Eigenvalue of basic(m, xi) at index n: 0 for n < m, else binom(n, m) / xi^(n-m)."""
    if n < m:
        return Fraction(0)
    return Fraction(comb(n, m), xi ** (n - m))
