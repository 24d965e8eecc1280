"""The names the benchmark under perfbench/ binds to, checked without running it.

perfbench/tracing.py wraps the functions listed in its `TRACED` table, and
the workloads read `value`, `est_abs_err` and `converged` from each
quadrature record and `values` from each sequence.  A rename that drops one
of these fails here, not first in a benchmark run.
"""

import ast
import importlib
import pathlib

from fockradial.eigenvalues import gamma_quadrature, gamma_sequence
from fockradial.symbols import basic_symbol

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced() -> dict:
    tree = ast.parse(_TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED table")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for layer, quals in traced.items():
        module = importlib.import_module(f"fockradial.{layer}")
        for qual in quals:
            target = module
            for part in qual.split("."):
                target = getattr(target, part)
            assert callable(target), f"{layer}.{qual}"


def test_records_expose_what_the_workloads_read():
    sym = basic_symbol(1, 4)
    res = gamma_quadrature(sym, 3)
    for attr in ("value", "est_abs_err", "converged"):
        assert hasattr(res, attr), attr
    for engine in ("closed", "quad"):
        assert len(gamma_sequence(sym, 2, engine=engine).values) == 3
