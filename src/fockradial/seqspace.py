"""Sequence toolkit for the sqrt-distance rho(j, k) = |sqrt(j) - sqrt(k)| on indices.

All sequences live on the nonnegative integers but are handled through finite
windows.  A `SeqWindow` stores a prefix of values plus a tail descriptor
saying what happens past the prefix: exactly zero (`ZeroTail`), convergent to
a constant (`LimitTail`), or unasserted (`UnknownTail`).

Quantities whose definitions range over all indices (modulus of continuity,
Lipschitz seminorm, sup norms) are computed over the window, completed with
descriptor values where those are defined.  They are lower bounds of the
untruncated quantities, except the modulus of continuity with a limit tail:
that is the modulus of the window-completed sequence, which may be larger.
Operations that must read past the window (Vallee-Poussin smoothing near the
right edge) consume the descriptor; with an unknown tail they fall back to
the largest prefix they can smooth honestly.  A difference or running sum past
the float range reads inf or nan, without a numpy warning.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "LimitTail",
    "SeqGenerator",
    "SeqWindow",
    "Tail",
    "UnknownTail",
    "ZeroTail",
    "lipschitz_seminorm",
    "modulus_of_continuity",
    "scalar_from_json",
    "scalar_to_json",
    "shift_difference_sup",
    "sqrt_dist",
    "target_from_json",
    "target_to_json",
    "vp_smooth",
]


@dataclass(frozen=True)
class ZeroTail:
    """All entries past the window are exactly zero."""


@dataclass(frozen=True)
class LimitTail:
    """Entries past the window converge to the constant p."""

    p: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "p", complex(self.p))
        if not cmath.isfinite(self.p):
            raise ValueError(f"limit tail p must be finite, got {self.p}")


@dataclass(frozen=True)
class UnknownTail:
    """Nothing is asserted past the window."""


Tail = Union[ZeroTail, LimitTail, UnknownTail]


@dataclass(frozen=True, eq=False)
class SeqWindow:
    """A finite prefix of a complex sequence plus a tail descriptor.

    values is one read-only complex128 array, copied from the input and
    checked once; every reader uses it as it is.  Two windows are equal when
    their tails are and their values are as numbers (so -0.0 == 0.0), and
    equal windows hash alike.
    """

    values: np.ndarray
    tail: Tail = UnknownTail()

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex)
        if vals.ndim != 1 or len(vals) < 1:
            raise ValueError("window must hold at least one value, in one dimension")
        if not np.isfinite(vals).all():
            raise ValueError("window values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __eq__(self, other):
        if not isinstance(other, SeqWindow):
            return NotImplemented
        return self.tail == other.tail and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.tail, tuple(self.values.tolist())))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def tail_known(self) -> bool:
        return not isinstance(self.tail, UnknownTail)

    def tail_value(self) -> complex:
        """The constant completing the sequence past the window."""
        if isinstance(self.tail, ZeroTail):
            return 0j
        if isinstance(self.tail, LimitTail):
            return self.tail.p
        raise ValueError("tail is unknown; this operation needs a tail descriptor")

    @property
    def sup_norm(self) -> float:
        """Sup of |values|, including the tail constant when the tail is known."""
        with np.errstate(over="ignore"):  # hypot rounds like abs(); a modulus past the float range is inf
            s = float(np.hypot(self.values.real, self.values.imag).max())
        if self.tail_known:
            s = max(s, abs(self.tail_value()))
        return s

    def as_array(self, upto: int | None = None) -> np.ndarray:
        """Values for indices 0..upto-1, completed from the tail when needed; a read-only view inside the window."""
        n = len(self.values) if upto is None else upto
        if n <= len(self.values):
            return self.values[:n]
        out = np.full(n, self.tail_value(), dtype=complex)
        out[: len(self.values)] = self.values
        return out


# ---------------------------------------------------------------------------
# JSON target schema: {"values": [...], "tail": {"kind": ..., "p": ...}}

def scalar_from_json(v) -> complex:
    """A number or an [re, im] pair as a complex; ValueError for anything else or an integer past the floats."""
    try:
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            return complex(v)
        pair = isinstance(v, list) and len(v) == 2
        if pair and all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in v):
            return complex(*v)
    except OverflowError:
        raise ValueError("scalar integer is past the float range") from None
    raise ValueError(f"cannot parse scalar {v!r}; expected a number or an [re, im] pair")


def scalar_to_json(z):
    z = complex(z)
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def target_from_json(obj) -> SeqWindow:
    if not isinstance(obj, dict) or "values" not in obj:
        raise ValueError("target must be an object with a 'values' list")
    values = obj["values"]
    if not isinstance(values, list) or not values:
        raise ValueError("target 'values' must be a nonempty list")
    # plain floats go into the window's array at once; anything else is read, or refused, one by one
    vals = values if {float}.issuperset(map(type, values)) else [scalar_from_json(v) for v in values]
    tail_obj = obj.get("tail", {"kind": "unknown"})
    if not isinstance(tail_obj, dict) or "kind" not in tail_obj:
        raise ValueError("target 'tail' must be an object with a 'kind'")
    kind = tail_obj["kind"]
    if kind == "zero":
        tail: Tail = ZeroTail()
    elif kind == "limit":
        if "p" not in tail_obj:
            raise ValueError("limit tail needs a 'p' value")
        tail = LimitTail(scalar_from_json(tail_obj["p"]))
    elif kind == "unknown":
        tail = UnknownTail()
    else:
        raise ValueError(f"unknown tail kind {kind!r}")
    return SeqWindow(vals, tail)


def target_to_json(window: SeqWindow) -> dict:
    if isinstance(window.tail, ZeroTail):
        tail = {"kind": "zero"}
    elif isinstance(window.tail, LimitTail):
        tail = {"kind": "limit", "p": scalar_to_json(window.tail.p)}
    else:
        tail = {"kind": "unknown"}
    return {"values": [scalar_to_json(v) for v in window.values.tolist()], "tail": tail}


# ---------------------------------------------------------------------------
# The sqrt-distance

def sqrt_dist(j: int, k: int) -> float:
    """rho(j, k) = |sqrt(j) - sqrt(k)|."""
    if j < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    return abs(math.sqrt(j) - math.sqrt(k))


# ---------------------------------------------------------------------------
# Windowed moduli and seminorms

def modulus_of_continuity(sigma: SeqWindow, delta: float) -> float:
    """Windowed modulus of continuity of sigma with respect to the sqrt-distance.

    Scans every index pair at sqrt-distance <= delta whose values are defined,
    i.e. both inside the window, or one inside and one in the descriptor-defined
    tail neighborhood just past it.  The result is monotone nondecreasing in
    delta.  With a zero or unknown tail it is a lower bound of the full
    modulus.  With a limit tail it is the modulus of the window-completed
    sequence, which can exceed the true one: for q^j with q = 0.9 at
    delta = 0.4 it is 0.4305 over 10 values and 0.1010 from 25 values on.
    Every index past the window holds the tail value, so one tail index is enough.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    n = len(sigma)
    k_hi = n if sigma.tail_known else n - 1
    vals = sigma.as_array(k_hi + 1)
    sq = np.sqrt(np.arange(k_hi + 1, dtype=float))
    best = 0.0
    # band d holds the pairs (j, j + d); gaps grow with d, so an empty band ends the scan
    with np.errstate(over="ignore"):
        for d in range(1, k_hi + 1):
            m = min(n, k_hi + 1 - d)
            keep = sq[d : d + m] - sq[:m] <= delta
            if not keep.any():
                break
            best = max(best, float(np.abs(vals[d : d + m] - vals[:m])[keep].max()))
    return best


def lipschitz_seminorm(sigma: SeqWindow) -> float:
    """Windowed sup of sqrt(n + 1) |sigma(n + 1) - sigma(n)|.

    Finite for every window; the sequence is Lipschitz for the sqrt-distance
    exactly when the untruncated sup stays bounded.
    """
    n = len(sigma)
    if n < 2:
        raise ValueError("window too short; need at least two values")
    with np.errstate(over="ignore"):
        steps = np.abs(np.diff(sigma.values))
    return float(np.max(np.sqrt(np.arange(1, n, dtype=float)) * steps))


# ---------------------------------------------------------------------------
# Shifts

def shift_difference_sup(sigma: SeqWindow, k: int, n_from: int = 0) -> float:
    """Max of |sigma(n) - sigma(n + k)| over n in [n_from, len - k).

    For sequences uniformly continuous in the sqrt-distance this decays as
    n_from grows; the function exposes that decay windowed.
    """
    if k < 1:
        raise ValueError("shift count k must be >= 1")
    n = len(sigma)
    if n_from < 0 or n_from + k >= n:
        raise ValueError("window too short for the requested range")
    v = sigma.values[n_from:]
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(v[: n - n_from - k] - v[k:])))


# ---------------------------------------------------------------------------
# Vallee-Poussin smoothing

def vp_smooth(sigma: SeqWindow, delta: float) -> SeqWindow:
    """Average sigma over [j, j + floor(delta sqrt(j))].

    The output stays within the delta-modulus of sigma in sup norm and has
    Lipschitz seminorm at most 4 sqrt(2) ||sigma|| / delta.  Indices near the
    right window edge need values past the window: with a known tail these
    come from the descriptor and the output has the same length as the input;
    with an unknown tail the output is the largest prefix whose averaging
    windows stay inside the data.  OverflowError if a running sum of the
    values passes the float range.
    """
    y = _vp_averages(sigma, delta)
    if not np.isfinite(y).all():
        raise OverflowError("a running sum of the window passed the float range")
    return SeqWindow(y, sigma.tail)


def _vp_averages(sigma: SeqWindow, delta: float) -> np.ndarray:
    """The averages of `vp_smooth`, by differences of running sums; inf or nan where a sum overflows."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    n = len(sigma)
    radii = np.floor(delta * np.sqrt(np.arange(n, dtype=float))).astype(int)
    if sigma.tail_known:
        usable = n
    else:
        # j + r_j is strictly increasing, so the indices whose averaging
        # window fits inside the data form a prefix; r_0 = 0 makes it nonempty.
        fits = np.arange(n) + radii <= n - 1
        usable = n if fits.all() else int(np.argmin(fits))
    need = (usable - 1) + int(radii[usable - 1]) + 1
    vals = sigma.as_array(max(need, usable))
    j = np.arange(usable)
    r = radii[:usable]
    with np.errstate(over="ignore", invalid="ignore"):
        csum = np.concatenate([[0j], np.cumsum(vals)])
        return (csum[j + r + 1] - csum[j]) / (r + 1)


# ---------------------------------------------------------------------------
# Builtin test-sequence generators

_GENERATOR_KINDS = (
    "cos_sqrt",
    "sqrt_abs_sin_pi_sqrt",
    "geometric",
    "inverse_plus_one",
    "finite_support",
)


@dataclass(frozen=True)
class SeqGenerator:
    """Index-to-value rules for the builtin families.

    cos_sqrt:             j -> cos(sqrt(j))                (bounded, no limit)
    sqrt_abs_sin_pi_sqrt: j -> sqrt(|sin(pi sqrt(j))|)     (bounded, no limit)
    geometric:            j -> q^j with |q| < 1            (limit 0)
    inverse_plus_one:     j -> 1 / (j + 1)                 (limit 0)
    finite_support:       j -> support[j], 0 past the end  (zero tail)
    """

    kind: str
    q: complex | None = None
    support: tuple[complex, ...] | None = None

    def __post_init__(self):
        if self.kind not in _GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == "geometric":
            if self.q is None:
                raise ValueError("geometric generator needs a ratio q")
            object.__setattr__(self, "q", complex(self.q))
            if not abs(self.q) < 1.0:
                raise ValueError("geometric ratio must satisfy |q| < 1")
        if self.kind == "finite_support":
            if not self.support:
                raise ValueError("finite_support generator needs values")
            object.__setattr__(self, "support", tuple(complex(v) for v in self.support))

    def tail(self) -> Tail:
        if self.kind in ("geometric", "inverse_plus_one"):
            return LimitTail(0j)
        if self.kind == "finite_support":
            return ZeroTail()
        return UnknownTail()

    def window(self, n_win: int) -> SeqWindow:
        if n_win < 1:
            raise ValueError("window length must be >= 1")
        if self.kind == "finite_support" and n_win < len(self.support):
            raise ValueError("window must cover the full support")
        j = np.arange(n_win, dtype=float)
        if self.kind == "cos_sqrt":
            vals = np.cos(np.sqrt(j))
        elif self.kind == "sqrt_abs_sin_pi_sqrt":
            vals = np.sqrt(np.abs(np.sin(np.pi * np.sqrt(j))))
        elif self.kind == "geometric":
            vals = np.power(self.q, np.arange(n_win))
        elif self.kind == "inverse_plus_one":
            vals = 1.0 / (j + 1.0)
        else:
            vals = np.zeros(n_win, dtype=complex)
            vals[: len(self.support)] = self.support
        return SeqWindow(vals, self.tail())
