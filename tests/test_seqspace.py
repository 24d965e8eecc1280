import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockradial.seqspace import (
    LimitTail,
    SeqGenerator,
    SeqWindow,
    UnknownTail,
    ZeroTail,
    lipschitz_seminorm,
    modulus_of_continuity,
    scalar_from_json,
    shift_difference_sup,
    sqrt_dist,
    target_from_json,
    target_to_json,
    vp_smooth,
)


def window(values, tail=None):
    return SeqWindow(tuple(values), tail if tail is not None else UnknownTail())


# ---------------------------------------------------------------------------
# sqrt distance

def test_sqrt_dist_examples():
    assert sqrt_dist(0, 0) == 0.0
    assert sqrt_dist(1, 4) == 1.0
    assert sqrt_dist(9, 16) == 1.0
    for j, k in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            sqrt_dist(j, k)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
def test_sqrt_dist_metric_axioms(i, j, k):
    assert sqrt_dist(i, j) == sqrt_dist(j, i)
    assert (sqrt_dist(i, j) == 0.0) == (i == j)
    assert sqrt_dist(i, k) <= sqrt_dist(i, j) + sqrt_dist(j, k) + 1e-12


def test_min_index_lower_bound_on_sampled_pairs():
    # distinct j, k at sqrt-distance rho < 1/2 both exceed 1 / (2 rho)^2 - 1
    rng = np.random.default_rng(7)
    for _ in range(500):
        j = int(rng.integers(1, 10_000))
        k = int(rng.integers(1, 10_000))
        if j == k:
            continue
        rho = sqrt_dist(j, k)
        if rho < 0.5:
            assert min(j, k) >= 1.0 / (2.0 * rho) ** 2 - 1.0 - 1e-9


# ---------------------------------------------------------------------------
# windows and tails

def test_window_validation():
    with pytest.raises(ValueError):
        SeqWindow(())
    with pytest.raises(ValueError):
        SeqWindow((float("nan"),))


@pytest.mark.parametrize("p", [complex(math.nan), complex(math.inf), complex(0.0, -math.inf)])
def test_limit_tail_must_be_finite(p):
    with pytest.raises(ValueError, match="finite"):
        LimitTail(p)
    # json reads NaN and Infinity, so a target file can carry one
    with pytest.raises(ValueError, match="finite"):
        target_from_json({"values": [1.0, 0.5], "tail": {"kind": "limit", "p": [p.real, p.imag]}})


def test_tail_completion():
    w = window([1.0, 2.0], ZeroTail())
    assert w.as_array(6)[5] == 0
    w = window([1.0], LimitTail(3.0))
    assert w.as_array(11)[10] == 3.0
    with pytest.raises(ValueError):
        window([1.0]).as_array(11)


def test_sup_norm_includes_tail():
    w = window([1.0, -2.0], LimitTail(5.0))
    assert w.sup_norm == 5.0
    assert window([1.0, -2.0]).sup_norm == 2.0
    # a finite value whose modulus passes the float range reads inf, without a warning
    assert window([1.0, 1.7e308 + 1.7e308j]).sup_norm == math.inf
    assert window([1.0, 1.7e308 + 1.7e308j], ZeroTail()).sup_norm == math.inf


def test_target_json_roundtrip():
    w = window([1.0, 0.5 + 0.25j], LimitTail(1.0 + 2.0j))
    again = target_from_json(target_to_json(w))
    assert again.values.tolist() == w.values.tolist()
    assert again.tail == w.tail
    for tail in (ZeroTail(), UnknownTail()):
        w = window([0.5, 0.25], tail)
        assert target_from_json(target_to_json(w)).tail == tail


def test_target_json_rejects_garbage():
    with pytest.raises(ValueError):
        target_from_json({"values": []})
    with pytest.raises(ValueError):
        target_from_json({"values": [1], "tail": {"kind": "banana"}})
    with pytest.raises(ValueError):
        target_from_json({"values": ["x"]})
    with pytest.raises(ValueError):
        target_from_json({"values": [1], "tail": {"kind": "limit"}})
    with pytest.raises(ValueError, match="must be an object"):
        target_from_json([1.0, 0.5])
    with pytest.raises(ValueError, match="'tail' must be an object"):
        target_from_json({"values": [1.0], "tail": "zero"})


def test_window_values_are_one_read_only_copy():
    source = np.array([1.0, 2.0, 3.0])
    w = SeqWindow(source, ZeroTail())
    source[0] = 9.0
    assert w.values.dtype == np.complex128 and w.values.tolist() == [1, 2, 3]
    with pytest.raises(ValueError):
        w.values[0] = 5.0
    with pytest.raises(ValueError):
        w.as_array(2)[0] = 5.0  # a view inside the window is read-only too
    assert w.as_array(5).tolist() == [1, 2, 3, 0, 0]
    with pytest.raises(ValueError):
        SeqWindow(np.ones((2, 2)))


_SIGNED = st.sampled_from([0.0, -0.0, 1.0, -2.5])


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(_SIGNED, _SIGNED), min_size=1, max_size=4),
    st.lists(st.tuples(_SIGNED, _SIGNED), min_size=1, max_size=4),
    st.sampled_from([ZeroTail(), UnknownTail(), LimitTail(0j), LimitTail(complex(-0.0, 0.0))]),
    st.sampled_from([ZeroTail(), LimitTail(0j)]),
)
def test_window_equality_is_tuple_equality_and_agrees_with_hash(left, right, left_tail, right_tail):
    a = SeqWindow([complex(*z) for z in left], left_tail)
    b = SeqWindow([complex(*z) for z in right], right_tail)
    as_tuples = (tuple(complex(*z) for z in left), left_tail) == (tuple(complex(*z) for z in right), right_tail)
    assert (a == b) is as_tuples and (a != b) is not as_tuples
    if a == b:
        assert hash(a) == hash(b)


def test_window_equality_ignores_the_sign_of_zero():
    a, b = window([0.0, complex(1.0, -0.0)], ZeroTail()), window([-0.0, complex(1.0, 0.0)], ZeroTail())
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != window([0.0, 1.0], UnknownTail()) and a != (0j, 1 + 0j) and a != window([0.0], ZeroTail())


def _rejection(values) -> str:
    with pytest.raises(ValueError) as info:
        target_from_json({"values": values, "tail": {"kind": "zero"}})
    return str(info.value)


def test_target_json_fast_path_keeps_every_rejection():
    # a list that is not all plain floats is read item by item, as before, with the same messages
    assert _rejection([1.0, True]) == "cannot parse scalar True; expected a number or an [re, im] pair"
    assert _rejection([1.0, 10**400]) == "scalar integer is past the float range"
    assert _rejection([1.0, [[1.0]]]) == "cannot parse scalar [[1.0]]; expected a number or an [re, im] pair"
    assert _rejection([1.0, [0.5, False]]).startswith("cannot parse scalar [0.5, False]")
    assert _rejection([1.0, "x"]).startswith("cannot parse scalar 'x'")
    assert _rejection([1.0, math.nan]) == "window values must be finite"
    assert _rejection([[1.0, math.inf]]) == "window values must be finite"
    mixed = target_from_json({"values": [1, [0.5, -0.25], -0.0], "tail": {"kind": "zero"}})
    assert repr(mixed.values.tolist()) == repr([1 + 0j, 0.5 - 0.25j, complex(-0.0, 0.0)])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True), min_size=1, max_size=20))
def test_target_json_fast_path_reads_floats_as_scalar_from_json(values):
    fast = target_from_json({"values": values})
    assert repr(fast.values.tolist()) == repr([scalar_from_json(v) for v in values])


@pytest.mark.parametrize(
    "gen",
    [
        SeqGenerator("cos_sqrt"),
        SeqGenerator("sqrt_abs_sin_pi_sqrt"),
        SeqGenerator("geometric", q=0.9),
        SeqGenerator("geometric", q=-0.5 + 0.25j),
        SeqGenerator("inverse_plus_one"),
        SeqGenerator("finite_support", support=(1.0, -0.0, 2.5j)),
    ],
    ids=lambda gen: gen.kind,
)
def test_generator_windows_match_the_tuple_path(gen):
    # the values the generators built as tuples, then as one expression per kind
    # in an if/elif chain, byte for byte over a grid of lengths
    for n in (3, 4, 10, 300, 1001):
        j = np.arange(n, dtype=float)
        if gen.kind == "finite_support":
            old = np.zeros(n, dtype=complex)
            old[: len(gen.support)] = gen.support
        else:
            old = {
                "cos_sqrt": lambda: np.cos(np.sqrt(j)),
                "sqrt_abs_sin_pi_sqrt": lambda: np.sqrt(np.abs(np.sin(np.pi * np.sqrt(j)))),
                "geometric": lambda: np.power(gen.q, np.arange(n)),
                "inverse_plus_one": lambda: 1.0 / (j + 1.0),
            }[gen.kind]()
        got = gen.window(n)
        assert got.values.tobytes() == np.asarray(old, dtype=complex).tobytes(), n
        assert got.tail == gen.tail()


# ---------------------------------------------------------------------------
# modulus of continuity

def brute_modulus(values, delta, tail_value=None):
    """Max |sigma(k) - sigma(j)| over j < len and k > j with sqrt(k) - sqrt(j) <= delta.

    With a tail_value, k runs into the completed tail; without one it stops
    at the window's end.
    """
    n = len(values)
    best = 0.0
    for j in range(n):
        k = j + 1
        while math.sqrt(k) - math.sqrt(j) <= delta and (k < n or tail_value is not None):
            best = max(best, abs((values[k] if k < n else tail_value) - values[j]))
            k += 1
    return best


def test_modulus_constant_window():
    w = window([3.0] * 40, LimitTail(3.0))
    for delta in (0.1, 1.0, 5.0):
        assert modulus_of_continuity(w, delta) == 0.0


def test_modulus_spike_window():
    w = window([1.0] + [0.0] * 9)
    assert modulus_of_continuity(w, 1.0) == pytest.approx(1.0)


def test_modulus_cos_sqrt_is_lipschitz():
    w = SeqGenerator("cos_sqrt").window(2000)
    for delta in (0.05, 0.2, 0.5):
        assert modulus_of_continuity(w, delta) <= delta + 1e-12


def test_modulus_matches_brute_force():
    # the known tails add the pairs that reach past the window into the completion;
    # on the ramp, which ends at 3, those pairs decide every value
    rng = np.random.default_rng(11)
    tails = ((UnknownTail(), None), (ZeroTail(), 0.0), (LimitTail(0.7), 0.7))
    for values in (rng.normal(size=60), np.linspace(-1.0, 3.0, 60)):
        for tail, tail_value in tails:
            w = window(values, tail)
            for delta in (0.1, 0.35, 0.8, 2.0):
                assert modulus_of_continuity(w, delta) == brute_modulus(values, delta, tail_value)


def _reference_modulus(sigma, delta):
    """The modulus scanned to the last tail index that delta reaches, (sqrt(n - 1) + delta)^2."""
    n = len(sigma)
    if sigma.tail_known:
        top = math.sqrt(n - 1) + delta
        k_hi = max(int(math.floor(top * top + 1e-12)), n - 1)
    else:
        k_hi = n - 1
    vals = sigma.as_array(k_hi + 1)
    sq = np.sqrt(np.arange(k_hi + 1, dtype=float))
    best = 0.0
    for d in range(1, k_hi + 1):
        m = min(n, k_hi + 1 - d)
        keep = sq[d : d + m] - sq[:m] <= delta
        if not keep.any():
            break
        best = max(best, float(np.abs(vals[d : d + m] - vals[:m])[keep].max()))
    return best


def test_modulus_needs_one_tail_index():
    # every index past the window holds the tail value, so the pair (j, n)
    # stands for all pairs (j, k >= n): scanning to the last tail index that
    # delta reaches gives the same bits
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        values = rng.normal(size=n) + 1j * rng.normal(size=n) * rng.integers(0, 2)
        tail = (UnknownTail(), ZeroTail(), LimitTail(complex(rng.normal())))[rng.integers(0, 3)]
        w = window(values, tail)
        for delta in (*rng.uniform(0.01, 3.0, size=3), math.sqrt(n) - math.sqrt(n - 1)):
            assert modulus_of_continuity(w, delta) == _reference_modulus(w, delta), (n, tail, delta)
    # a delta past every gap, which the last-index formula could not take,
    # gives the largest difference of the window-completed sequence
    w = SeqGenerator("geometric", q=0.5).window(10)
    completed = w.as_array(len(w) + 1)
    largest = float(np.abs(completed[:, None] - completed[None, :]).max())
    for delta in (1e200, math.inf):
        assert modulus_of_continuity(w, delta) == largest, delta


def test_modulus_monotone_in_delta():
    rng = np.random.default_rng(3)
    w = window(rng.normal(size=80), ZeroTail())
    deltas = np.linspace(0.05, 3.0, 25)
    vals = [modulus_of_continuity(w, d) for d in deltas]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_modulus_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        modulus_of_continuity(window([1.0, 2.0]), 0.0)


def test_modulus_shift_sandwich_windowed():
    # omega_sigma(delta / sqrt(6)) <= omega_shifted(delta) <= omega_sigma(delta)
    rng = np.random.default_rng(5)
    windows = [
        SeqGenerator("cos_sqrt").window(400),
        window(rng.normal(size=300)),
        window(np.cumsum(rng.normal(size=300)) / 10.0),
    ]
    for w in windows:
        for delta in (0.2, 0.5, 0.9):
            left = modulus_of_continuity(
                SeqWindow(w.values, UnknownTail()), delta / math.sqrt(6)
            )
            mid = modulus_of_continuity(SeqWindow(w.values[1:], UnknownTail()), delta)
            right = modulus_of_continuity(SeqWindow(w.values, UnknownTail()), delta)
            assert left <= mid + 1e-12
            assert mid <= right + 1e-12


# ---------------------------------------------------------------------------
# Lipschitz seminorm

def test_seminorm_constant_is_zero():
    assert lipschitz_seminorm(window([2.0] * 10)) == 0.0


def test_seminorm_cos_sqrt_bounded_by_one():
    w = SeqGenerator("cos_sqrt").window(5000)
    assert lipschitz_seminorm(w) <= 1.0 + 1e-12


def test_seminorm_sqrt_abs_sin_blows_up():
    w = SeqGenerator("sqrt_abs_sin_pi_sqrt").window(10_002)
    # the kink at indices m^2 makes sqrt(n+1)|diff| grow like sqrt(pi m / 2)
    assert lipschitz_seminorm(w) > 10.0


def test_seminorm_needs_two_values():
    with pytest.raises(ValueError):
        lipschitz_seminorm(window([1.0]))


# ---------------------------------------------------------------------------
# shifts

def test_shift_difference_sup():
    assert shift_difference_sup(window([4.0] * 30), 3) == 0.0
    geom = SeqGenerator("geometric", q=0.5).window(40)
    # |q^n - q^{n+1}| = q^{n+1}, maximal at n = n_from
    assert shift_difference_sup(geom, 1, 20) == pytest.approx(2.0**-21)
    cos = SeqGenerator("cos_sqrt").window(20_000)
    assert shift_difference_sup(cos, 1, 10_000) <= 0.005
    with pytest.raises(ValueError):
        shift_difference_sup(window([1.0, 2.0]), 2)
    with pytest.raises(ValueError):
        shift_difference_sup(window([1.0, 2.0]), 0, 0)
    # k and n_from are integers: a float is not sliced, and True is not 1
    for k, n_from, name in ((1.5, 3, "k"), (True, 3, "k"), (1, 2.0, "n_from")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            shift_difference_sup(geom, k, n_from)


# ---------------------------------------------------------------------------
# Vallee-Poussin smoothing

def test_vp_smooth_examples():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
    w = window(values, ZeroTail())
    y = vp_smooth(w, 0.5)
    assert len(y) == len(w)
    assert y.values[0] == values[0]  # r_0 = 0
    # r_4 = floor(0.5 * 2) = 1, so y(4) averages indices 4..5
    assert y.values[4] == pytest.approx((values[4] + values[5]) / 2)


def test_vp_smooth_constant_stays_constant():
    w = window([2.5] * 30, LimitTail(2.5))
    for delta in (0.1, 0.5, 0.9):
        y = vp_smooth(w, delta)
        assert max(abs(v - 2.5) for v in y.values) == 0.0


def test_vp_smooth_unknown_tail_gives_prefix():
    w = SeqGenerator("cos_sqrt").window(200)
    y = vp_smooth(w, 0.5)
    assert 1 <= len(y) <= 200
    # every produced index only averaged in-window values
    for j in range(len(y)):
        assert j + int(0.5 * math.sqrt(j)) <= 199


def test_vp_smooth_raises_overflow_past_the_float_range():
    # the running sums overflow although every average is 1e308; no numpy warning leaks
    with pytest.raises(OverflowError, match="float range"):
        vp_smooth(window([1e308] * 40, ZeroTail()), 0.5)
    # alternating signs keep every running sum finite, while the neighbours' differences are not
    w = window([1e308, -1e308] * 20, LimitTail(0.0))
    assert len(vp_smooth(w, 0.9)) == 40
    assert modulus_of_continuity(w, 0.9) == math.inf
    assert lipschitz_seminorm(w) == math.inf
    assert shift_difference_sup(w, 1) == math.inf and shift_difference_sup(w, 2) == 0.0


def test_vp_smooth_bounds():
    rng = np.random.default_rng(23)
    for trial in range(40):
        n_win = int(rng.integers(30, 120))
        values = rng.uniform(-1, 1, size=n_win) + 1j * rng.uniform(-1, 1, size=n_win)
        tail = ZeroTail() if trial % 2 else LimitTail(complex(rng.uniform(-1, 1)))
        w = SeqWindow(tuple(values), tail)
        for delta in (0.1, 0.3, 0.7):
            y = vp_smooth(w, delta)
            sup_diff = max(abs(a - b) for a, b in zip(y.values, w.values))
            assert sup_diff <= modulus_of_continuity(w, delta) + 1e-12
            assert lipschitz_seminorm(y) <= 4 * math.sqrt(2) * w.sup_norm / delta + 1e-9


def test_vp_smooth_rejects_bad_delta():
    w = window([1.0, 2.0], ZeroTail())
    for delta in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            vp_smooth(w, delta)


# ---------------------------------------------------------------------------
# generators

def test_generator_values():
    gen = SeqGenerator("cos_sqrt")
    w = gen.window(500)
    assert w.values[0] == 1.0
    assert w.values[4] == pytest.approx(math.cos(2.0))
    assert all(-1.0 <= v.real <= 1.0 and v.imag == 0 for v in w.values)

    gen = SeqGenerator("sqrt_abs_sin_pi_sqrt")
    w = gen.window(500)
    assert all(0.0 <= v.real <= 1.0 for v in w.values)

    geom = SeqGenerator("geometric", q=0.5)
    assert geom.window(10).values[3] == 0.125
    assert isinstance(geom.window(10).tail, LimitTail)

    inv = SeqGenerator("inverse_plus_one")
    assert inv.window(10).values[3] == 0.25

    fin = SeqGenerator("finite_support", support=(1.0, 2.0))
    assert fin.window(10).values[1] == 2.0
    assert fin.window(10).values[7] == 0.0
    assert isinstance(fin.window(5).tail, ZeroTail)


def test_generator_validation():
    with pytest.raises(ValueError):
        SeqGenerator("nope")
    with pytest.raises(ValueError):
        SeqGenerator("geometric")
    with pytest.raises(ValueError):
        SeqGenerator("geometric", q=1.0)
    with pytest.raises(ValueError):
        SeqGenerator("finite_support")
    with pytest.raises(ValueError):
        SeqGenerator("finite_support", support=(1.0, 2.0)).window(1)
    with pytest.raises(ValueError, match=">= 1"):
        SeqGenerator("cos_sqrt").window(0)
    # the length is an integer: 2.5 gave 3 values and True one
    for n_win in (2.5, True):
        with pytest.raises(ValueError, match="n_win must be an integer"):
            SeqGenerator("geometric", q=0.5).window(n_win)
    # each kind takes the one parameter of its entry and refuses any other
    with pytest.raises(ValueError, match="cos_sqrt generator takes no q"):
        SeqGenerator("cos_sqrt", q=0.5)
    with pytest.raises(ValueError, match="geometric generator takes no values"):
        SeqGenerator("geometric", q=0.5, support=(1.0,))
    with pytest.raises(ValueError, match="finite_support generator takes no q"):
        SeqGenerator("finite_support", support=(1.0, 2.0), q=0.3)
    with pytest.raises(ValueError, match="inverse_plus_one generator takes no values"):
        SeqGenerator("inverse_plus_one", support=())
