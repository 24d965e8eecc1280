"""Spans around the calls into each fockradial layer, recorded from outside.

`Tracer.install` replaces every module-level binding of the traced public
functions (the defining module and every module that imported the name)
with a timing wrapper; `uninstall` puts the originals back and fails if any
wrapper is left.  Spans (name, start, end, parent, op id) are kept in
memory; `per_layer` turns them into the per-layer metrics and `write`
stores them as JSON lines.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import numpy as np

import oracles

_LD_IS_WIDER = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps

TRACED = {
    "laguerre": ("laguerre_eval", "laguerre_eval_all"),
    "symbols": ("eval_symbol", "sup_estimate"),
    "eigenvalues": (
        "gamma_sequence",
        "gamma_quadrature",
        "gamma_combo_closed_form",
        "gamma_for_symbol_closed",
        "shifted_gamma_residual",
    ),
    "approx": ("plan_finite", "plan_c0", "plan_convergent", "verify_plan"),
    "seqspace": (
        "target_from_json",
        "SeqGenerator.window",
        "modulus_of_continuity",
        "lipschitz_seminorm",
        "shift_difference_sup",
        "vp_smooth",
    ),
    "cli": ("main",),
}

CLOSED = ("eigenvalues.gamma_combo_closed_form", "eigenvalues.gamma_for_symbol_closed")
PLANS = ("approx.plan_finite", "approx.plan_c0", "approx.plan_convergent")
WINDOWS = ("seqspace.target_from_json", "seqspace.SeqGenerator.window")
ANALYSES = (
    "seqspace.modulus_of_continuity",
    "seqspace.lipschitz_seminorm",
    "seqspace.shift_difference_sup",
    "seqspace.vp_smooth",
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _points(x) -> int:
    return int(np.size(x))


# what each wrapper remembers about a call, computed after the span closes
_NOTES = {
    "laguerre.laguerre_eval": lambda a, k, r: _points(_arg(a, k, 1, "x")),
    "laguerre.laguerre_eval_all": lambda a, k, r: _points(r),
    "symbols.eval_symbol": lambda a, k, r: (
        _points(_arg(a, k, 1, "x")),
        _LD_IS_WIDER and np.asarray(_arg(a, k, 1, "x")).dtype == np.longdouble,
    ),
    "eigenvalues.gamma_quadrature": lambda a, k, r: (_arg(a, k, 0, "sym"), _arg(a, k, 1, "n"), r),
    "eigenvalues.shifted_gamma_residual": lambda a, k, r: (_arg(a, k, 0, "sym"), _arg(a, k, 1, "j")),
    "approx.verify_plan": lambda a, k, r: (_arg(a, k, 0, "plan").n_terms, r.n_verify + 1),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list = []
        self.notes: list = []
        self.op = None  # id of the operation now running
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._modules: list = []

    # -- patching ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        note = _NOTES.get(name)
        names, starts, ends, parents, ops, notes, stack = (
            self.names, self.starts, self.ends, self.parents, self.ops, self.notes, self._stack
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            notes.append(None)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def install(self, fr) -> None:
        self._modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "fockradial" or key.startswith("fockradial.")
        ]
        for layer, quals in TRACED.items():
            home = getattr(fr, layer)
            for qual in quals:
                owner_name, _, attr = qual.rpartition(".")
                name = f"{layer}.{qual}"
                if owner_name:  # a method: one binding, on its class
                    owner = getattr(home, owner_name)
                    original = vars(owner)[attr]
                    self._patch(owner, attr, original, self._wrap(name, original))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(name, original)
                for mod in self._modules:
                    for key in [k for k, v in vars(mod).items() if v is original]:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every binding and assert that no wrapper is left anywhere."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        stale = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patched
            if vars(owner)[attr] is not original
        ]
        for mod in self._modules:
            for key, value in vars(mod).items():
                if hasattr(value, "__perfbench_original__"):
                    stale.append(f"{mod.__name__}.{key}")
                if isinstance(value, type):
                    stale += [
                        f"{mod.__name__}.{key}.{k}"
                        for k, v in vars(value).items()
                        if hasattr(v, "__perfbench_original__")
                    ]
        self._patched.clear()
        if stale:
            raise RuntimeError(f"tracing wrappers left in place: {sorted(set(stale))}")

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": self.starts[i] - t0,
                            "end": self.ends[i] - t0,
                            "parent": self.parents[i],
                            "op": self.ops[i],
                        }
                    )
                    + "\n"
                )

    # -- analysis ---------------------------------------------------------

    def _ancestor(self, i: int, names) -> int:
        p = self.parents[i]
        while p >= 0:
            if self.names[p] in names:
                return p
            p = self.parents[p]
        return -1

    def per_layer(self, keep, exact_value) -> dict:
        """Per-layer metrics over the spans whose op id satisfies `keep`.

        `exact_value(sym, n)` returns the oracle eigenvalue of a symbol the
        benchmark can identify, or None.
        """
        idx = [i for i, op in enumerate(self.ops) if keep(op)]
        dur = {i: self.ends[i] - self.starts[i] for i in idx}
        child_time = dict.fromkeys(idx, 0.0)
        children: dict[int, list[int]] = {i: [] for i in idx}
        for i in idx:
            p = self.parents[i]
            if p in child_time:
                child_time[p] += dur[i]
                children[p].append(i)

        def spans(*names):
            return [i for i in idx if self.names[i] in names]

        def self_s(*names):
            return sum(dur[i] - child_time[i] for i in spans(*names))

        def outermost(names):
            return [i for i in spans(*names) if self._ancestor(i, names) < 0]

        lag = spans("laguerre.laguerre_eval", "laguerre.laguerre_eval_all")
        evals = spans("symbols.eval_symbol")
        sups = outermost(("symbols.sup_estimate",))
        quads = spans("eigenvalues.gamma_quadrature")
        closed = outermost(CLOSED)
        shifts = spans("eigenvalues.shifted_gamma_residual")
        plans = outermost(PLANS)
        verifies = spans("approx.verify_plan")
        mains = spans("cli.main")

        integrand_points = sum(
            self.notes[c][0]
            for q in quads
            for c in children[q]
            if self.names[c] == "symbols.eval_symbol"
        )
        # averaging fan-out: outer integrand points of the averaged symbol vs
        # the inner evaluations of the base symbol they trigger
        outer = inner = 0
        for i in evals:
            if self._ancestor(i, ("eigenvalues.shifted_gamma_residual",)) < 0:
                continue
            if self.names[self.parents[i]] == "symbols.eval_symbol":
                inner += self.notes[i][0]
            elif any(self.names[c] == "symbols.eval_symbol" for c in children[i]):
                outer += self.notes[i][0]

        unconverged = flag_wrong = 0
        for q in quads:
            sym, n, res = self.notes[q]
            shift = self._ancestor(q, ("eigenvalues.shifted_gamma_residual",))
            if shift >= 0 and self.notes[shift][0] is not sym:
                base, j = self.notes[shift]
                exact = exact_value(base, n + j)  # the level-j averaged symbol
            else:
                exact = exact_value(sym, n)
            if not res.converged:
                unconverged += 1
            elif exact is not None:
                err = oracles.abs_error(res.value, exact)
                if err > res.est_abs_err or err > oracles.tolerance(exact):
                    flag_wrong += 1

        return {
            "laguerre.calls": len(lag),
            "laguerre.points": sum(self.notes[i] for i in lag),
            "laguerre.self_s": self_s("laguerre.laguerre_eval", "laguerre.laguerre_eval_all"),
            "symbols.eval_calls": len(evals),
            "symbols.eval_points": sum(self.notes[i][0] for i in evals),
            "symbols.eval_points_ld": sum(self.notes[i][0] for i in evals if self.notes[i][1]),
            "symbols.eval_self_s": self_s("symbols.eval_symbol"),
            "symbols.sup_estimate_calls": len(sups),
            "symbols.sup_estimate_s": sum(dur[i] for i in sups),
            "eigenvalues.quad_calls": len(quads),
            "eigenvalues.quad_self_s": self_s("eigenvalues.gamma_quadrature"),
            "eigenvalues.points_per_quad": integrand_points / len(quads) if quads else 0.0,
            "eigenvalues.quad_unconverged": unconverged,
            "eigenvalues.quad_flag_wrong": flag_wrong,
            "eigenvalues.closed_calls": len(closed),
            "eigenvalues.closed_s": sum(dur[i] for i in closed),
            "eigenvalues.shift_calls": len(shifts),
            "eigenvalues.shift_s": sum(dur[i] for i in shifts),
            "eigenvalues.avg_fanout": inner / outer if outer else 0.0,
            "approx.plan_calls": len(plans),
            "approx.plan_s": sum(dur[i] for i in plans),
            "approx.verify_calls": len(verifies),
            "approx.verify_self_s": self_s("approx.verify_plan"),
            "approx.terms": sum(self.notes[i][0] for i in verifies),
            "approx.verify_indices": sum(self.notes[i][1] for i in verifies),
            "seqspace.window_s": sum(dur[i] for i in outermost(WINDOWS)),
            "seqspace.analysis_s": sum(dur[i] for i in outermost(ANALYSES)),
            "cli.main_calls": len(mains),
            "cli.self_s": self_s("cli.main"),
        }
