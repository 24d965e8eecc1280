"""Seeded workloads: inputs, operations and their oracles.

Each workload is a fixed list of operations generated from the seed.  An
operation is one CLI command (run in-process through `fockradial.cli.main`)
or, for `callable_shift`, one library call.  The program only ever sees the
generated generator strings, JSON files and callables.

The discrete structure of every workload (how many targets or symbols of
each family, which precision tiers they reach) is fixed; the seed draws the
parameters inside narrow strata and the order.  That keeps the work per
pass nearly the same for every seed, so seeds can be compared.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import oracles

EPSILONS = (0.05, 0.02, 0.01)
LAYERS = ("laguerre", "symbols", "eigenvalues", "approx", "seqspace", "cli")


def load_package(src: Path) -> SimpleNamespace:
    """Import fockradial from `src`; the result holds its layer modules by name."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.import_module("fockradial")
    return SimpleNamespace(**{layer: importlib.import_module(f"fockradial.{layer}") for layer in LAYERS})


@dataclass
class Op:
    """One closed-loop operation: a timed call, then untimed collection and checks."""

    label: str
    call: Callable[[], Any]  # the timed call; returns the raw result
    collect: Callable[[Any], Any]  # raw result -> comparable output
    check: Callable[[Any], list[str]]  # output -> problems found by the oracle
    quad_calls: int = 0  # gamma_quadrature calls the operation must make
    cli: bool = False
    verify_indices: Callable[[Any], int] = lambda output: 0

    def bytes_written(self, output) -> int:
        return sum(len(b) for b in output[1]) if self.cli else 0


@dataclass
class Workload:
    ops: list[Op]
    warmup: Op
    probes: list[Op] = field(default_factory=list)  # known defects, run by the traced run only
    callables: dict[int, dict] = field(default_factory=dict)  # id(evaluator) -> oracle spec
    user_points: list[int] = field(default_factory=lambda: [0])  # points the callables returned


def _cli_op(fr, label, argv, writes, check, reads=(), quad_calls=0, verify_indices=lambda out: 0):
    writes, reads = list(writes), list(reads)

    def collect(rc):
        return rc, tuple(p.read_bytes() for p in writes), tuple(p.read_bytes() for p in reads)

    return Op(
        label=label,
        call=lambda: fr.cli.main(argv),
        collect=collect,
        check=lambda out: check(out[0], *out[1], *out[2]),
        quad_calls=quad_calls,
        cli=True,
        verify_indices=verify_indices,
    )


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# synthesis: diagnose, approximate, verify on seeded targets


@dataclass
class _Target:
    source: str  # generator string or JSON path, as the CLI takes it
    values: list[float]  # the window, computed here independently of the library
    limit: float  # completes the sequence past the window
    epsilon: float


def _geometric(rng, n_terms: int, epsilon: float) -> _Target:
    # q drawn so the plan truncates at n_terms: q^(N-1) > eps/2 > q^N
    q = round((epsilon / 2) ** (1.0 / (n_terms - 0.9 + 0.8 * rng.random())), 6)
    n = n_terms + 200 + rng.randrange(10)
    return _Target(f"generator:geometric?q={q}&n={n}", [q**j for j in range(n)], 0.0, epsilon)


def _targets(rng: random.Random, work: Path) -> list[_Target]:
    targets = []
    for eps in EPSILONS:
        for size in (30, 60, 95):
            targets.append(_geometric(rng, size, eps))
    for eps in (0.05, 0.02):  # at 0.01 the plan has 200 terms and one op takes seconds
        n = int(2 / eps) + 200 + rng.randrange(10)
        values = [1.0 / (j + 1) for j in range(n)]
        targets.append(_Target(f"generator:inverse_plus_one?n={n}", values, 0.0, eps))
    for i, eps in enumerate(EPSILONS):
        support = [round(rng.gauss(0.0, 0.5), 4) for _ in range(4 + 8 * i + rng.randrange(8))]
        n = len(support) + 10 + rng.randrange(5)
        values = support + [0.0] * (n - len(support))
        spec = ",".join(repr(v) for v in support)
        targets.append(
            _Target(f"generator:finite_support?values={spec}&n={n}", values, 0.0, eps)
        )
    for i, eps in enumerate(EPSILONS):
        p = rng.choice((-1, 1)) * rng.uniform(0.2, 1.0)
        amp, ratio, theta = rng.uniform(0.9, 1.1), rng.uniform(0.875, 0.885), rng.uniform(0, math.pi)
        values = [p + amp * ratio**j * math.cos(theta * j) for j in range(280 + rng.randrange(10))]
        path = work / f"target_{i}.json"
        _write_json(path, {"values": values, "tail": {"kind": "limit", "p": p}})
        targets.append(_Target(str(path), values, p, eps))
    rng.shuffle(targets)
    return targets


def _window(plan_bytes: bytes) -> int:
    return json.loads(plan_bytes)["verify_window"] + 1


def _synthesis_ops(fr, t: _Target, tag: str, work: Path, sample_seed: int) -> list[Op]:
    diag, plan, report, out = (
        work / f"{tag}.{ext}" for ext in ("diag.csv", "plan.json", "report.csv", "verify.json")
    )
    return [
        _cli_op(
            fr,
            f"diagnose {t.source}",
            ["diagnose", t.source, "-o", str(diag)],
            [diag],
            lambda rc, table: oracles.check_diagnose(t.values, t.limit, rc, table),
        ),
        _cli_op(
            fr,
            f"approximate {t.source} eps={t.epsilon}",
            ["approximate", t.source, "--epsilon", repr(t.epsilon), "--plan-out", str(plan), "--report-out", str(report)],
            [plan, report],
            lambda rc, p, r: oracles.check_plan(t.values, t.limit, t.epsilon, sample_seed, rc, p, r),
            verify_indices=lambda out: _window(out[1][0]),
        ),
        _cli_op(
            fr,
            f"verify {t.source} eps={t.epsilon}",
            ["verify", "--plan", str(plan), "--target", t.source, "-o", str(out)],
            [out],
            oracles.check_verify,
            reads=[plan],
            verify_indices=lambda out: _window(out[2][0]),
        ),
    ]


def build_synthesis(rng: random.Random, work: Path, fr) -> Workload:
    ops = []
    for i, t in enumerate(_targets(rng, work)):
        ops += _synthesis_ops(fr, t, f"t{i}", work, rng.randrange(2**32))
    warm = _geometric(random.Random(0), 40, 0.05)
    warmup = _synthesis_ops(fr, warm, "warmup", work, 0)[1]
    return Workload(ops, warmup)


# ---------------------------------------------------------------------------
# eigs_structured: eigs --engine both on seeded structured symbols


def _eigs_op(fr, spec: dict, n_max: int, tag: str, work: Path) -> Op:
    path = _write_json(work / f"{tag}.sym.json", spec)
    table = work / f"{tag}.eigs.csv"
    label = f"eigs {json.dumps(spec)[:80]} n<={n_max}"
    return _cli_op(
        fr,
        label,
        ["eigs", path, "--engine", "both", "--n-max", str(n_max), "-o", str(table)],
        [table],
        lambda rc, data: oracles.check_eigs(spec, n_max, rc, data),
        quad_calls=n_max + 1,
    )


def _fixed_normal(seed: int, size: int) -> list[float]:
    return [float(c) for c in np.random.default_rng(seed).normal(size=size)]


def build_eigs_structured(rng: random.Random, work: Path, fr) -> Workload:
    cases = []
    # 25 basic symbols, (m, xi) fixed per slot and below the degrees whose
    # zero eigenvalues need the mpmath tier; n_max rises through the slots
    largest_m = {2: 12, 4: 11, 8: 7, 16: 5}
    for i in range(25):
        xi = (2, 4, 8, 16)[i % 4]
        spec = {"type": "laguerre_basic", "m": (5 * i) % (largest_m[xi] + 1), "xi": xi}
        cases.append((spec, 5 + 8 * i + rng.randrange(3)))
    # 20 combos of 2..5 terms (5 terms only up to xi = 16, beyond which they
    # reach the mpmath tier), seeded coefficients, every other one offset
    for i in range(20):
        n_terms = 2 + i % 4
        spec = {
            "type": "combo",
            "xi": (3, 7, 12, 16, 22, 30, 40, 10)[i % 8] if n_terms < 5 else (4, 9, 16)[i % 3],
            "coefficients": [rng.gauss(0.0, 1.0) for _ in range(n_terms)],
        }
        if i % 2:
            spec["offset"] = rng.uniform(-1.0, 1.0)
        cases.append((spec, 5 + 7 * i + rng.randrange(3)))
    # fixed members that reach the extended- and arbitrary-precision tiers
    cases += [
        ({"type": "laguerre_basic", "m": 8, "xi": 8}, 150 + rng.randrange(10)),
        ({"type": "laguerre_basic", "m": 6, "xi": 16}, 100 + rng.randrange(10)),
        ({"type": "combo", "xi": 40, "coefficients": _fixed_normal(2, 6)}, 40 + rng.randrange(10)),
    ]
    rng.shuffle(cases)
    ops = [_eigs_op(fr, spec, int(n_max), f"s{i}", work) for i, (spec, n_max) in enumerate(cases)]
    warmup = _eigs_op(fr, {"type": "laguerre_basic", "m": 6, "xi": 16}, 8, "warmup", work)
    # known defects: through `eigs`, combos at xi = 40 miss the tolerance
    # from 17 terms on (16 pass); the smallest failing size, and ROADMAP
    # item 5's reproducer (40 terms, exits 0 with values off by ~1e32)
    probes = [
        _eigs_op(fr, {"type": "combo", "xi": 40, "coefficients": _fixed_normal(0, size)}, n_max, f"probe{size}", work)
        for size, n_max in ((17, 1), (40, 2))
    ]
    return Workload(ops, warmup, probes)


# ---------------------------------------------------------------------------
# callable_shift: float64-only library calls the CLI cannot express


def _evaluator(spec: dict, vectorized: bool, points: list[int]):
    """The benchmark's own black-box callable for `spec`, counting the points it evaluates.

    The vectorized form takes arrays; the scalar-only form uses `math.*`
    and raises on arrays, so the library falls back to one call per point.
    The scalar forms are called millions of times, so each is one lean closure.
    """
    kind = spec["kind"]
    if kind == "basic":
        m, xi = spec["m"], spec["xi"]
        exp = np.exp if vectorized else math.exp

        def g(x):  # (-1)^m xi^(m+1) exp(-(xi-1) x^2) L_m(xi x^2), by the Laguerre recurrence
            t = xi * x * x
            prev, cur = np.ones_like(t) if vectorized else 1.0, 1.0 - t
            for k in range(1, m):
                prev, cur = cur, ((2 * k + 1 - t) * cur - k * prev) / (k + 1)
            out = (-1) ** m * xi ** (m + 1) * exp(-(xi - 1) * x * x) * (cur if m else prev)
            points[0] += np.size(x) if vectorized else 1
            return out

        return g
    c = -spec["a"] if kind == "gauss" else spec["b"]
    f = (np.exp if vectorized else math.exp) if kind == "gauss" else (np.cos if vectorized else math.cos)
    if vectorized:
        def g(x):
            out = f(c * x * x)
            points[0] += np.size(x)
            return out
    else:
        def g(x):
            out = f(c * x * x)
            points[0] += 1
            return out
    return g


def build_callable_shift(rng: random.Random, work: Path, fr) -> Workload:
    callables: dict[int, dict] = {}
    points = [0]

    def make(spec: dict, vectorized: bool):
        g = _evaluator(spec, vectorized, points)
        callables[id(g)] = spec
        bound = float(spec["xi"] ** (spec["m"] + 1)) if spec["kind"] == "basic" else 1.0
        return fr.symbols.CallableSymbol(g, sup_bound=bound)

    def sequence_op(spec: dict, vectorized: bool, n_max: int) -> Op:
        sym = make(spec, vectorized)

        def check(values):
            if len(values) != n_max + 1:
                return [f"{len(values)} values for n <= {n_max}"]
            problems = []
            for n, v in enumerate(values):
                exact = oracles.gamma_callable(spec, n)
                if oracles.abs_error(v, exact) > oracles.tolerance(exact):
                    problems.append(f"n={n}: {v!r} vs {float(exact)!r}")
            return problems[:5]

        form = "vector" if vectorized else "scalar"
        return Op(
            f"gamma_sequence {spec} {form} n<={n_max}",
            lambda: fr.eigenvalues.gamma_sequence(sym, n_max, engine="quad"),
            lambda seq: tuple(complex(v) for v in seq.values),
            check,
            quad_calls=n_max + 1,
        )

    def shift_op(base: dict, j: int, n_max: int) -> Op:
        if base["kind"] == "constant":
            sym = fr.symbols.symbol_from_json({"type": "constant", "value": base["value"]})
        elif base["kind"] == "laguerre_basic":
            sym = fr.symbols.symbol_from_json({"type": "laguerre_basic", "m": base["m"], "xi": base["xi"]})
        else:
            sym = make(base, True)

        def check(residual):
            return [] if residual < 1e-6 else [f"residual {residual!r} >= 1e-6"]

        structured = base["kind"] in ("constant", "laguerre_basic")
        return Op(
            f"shifted_gamma_residual {base} j={j} n<={n_max}",
            lambda: fr.eigenvalues.shifted_gamma_residual(sym, j, n_max),
            float,
            check,
            quad_calls=(n_max + 1) * (1 if structured else 2),
        )

    # six slots per family and form; n_max rises through the slots and each
    # slot owns a narrow band of the family's parameter range
    ops = []
    families = [
        lambda i: {"kind": "gauss", "a": 0.2 + 0.45 * ((5 * i) % 6) + 0.1 * rng.random()},
        lambda i: {"kind": "chirp", "b": 0.1 + 0.15 * ((5 * i) % 6) + 0.03 * rng.random()},
        lambda i: {"kind": "basic", "m": (3 * i) % 5, "xi": (2, 4)[i % 2]},
    ]
    for family in families:
        for vectorized in (True, False):
            for i in range(6):
                ops.append(sequence_op(family(i), vectorized, 10 + 40 * i + rng.randrange(8)))
    bases = [
        lambda i: {"kind": "constant", "value": rng.uniform(0.5, 2.0)},
        lambda i: {"kind": "gauss", "a": rng.uniform(0.2, 3.0)},
        lambda i: {"kind": "laguerre_basic", "m": (0, 3)[i], "xi": (4, 2)[i]},
    ]
    for base in bases:
        for i in range(2):
            ops.append(shift_op(base(i), 1, 5 + 10 * i + rng.randrange(3)))
    # level-2 averaging costs ~110^2 inner points per outer point; the averaging
    # horizon grows with log sup|g|, so the bases keep a fixed scale
    ops.append(shift_op({"kind": "constant", "value": rng.uniform(0.6, 0.9)}, 2, 2))
    ops.append(shift_op({"kind": "gauss", "a": rng.uniform(0.9, 1.1)}, 2, 2))
    ops.append(shift_op({"kind": "laguerre_basic", "m": 3, "xi": 4}, 2, 2))
    rng.shuffle(ops)
    warmup = sequence_op({"kind": "gauss", "a": 1.0}, True, 20)
    return Workload(ops, warmup, callables=callables, user_points=points)


BUILDERS = {
    "synthesis": build_synthesis,
    "eigs_structured": build_eigs_structured,
    "callable_shift": build_callable_shift,
}


def build(name: str, seed: int, work: Path, fr) -> Workload:
    """Generate the workload's inputs from the seed into `work`; `fr` holds the fockradial modules."""
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](random.Random(f"{name}:{seed}"), work, fr)
