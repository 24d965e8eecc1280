"""Independent oracles for the benchmark's outputs.

Nothing here calls into fockradial.  Eigenvalues come from the closed form
binom(n, k) / xi^(n-k) in exact rational arithmetic, or from analytic
formulas for the black-box callables; sequence diagnostics are recomputed
from their definitions; plan certificates are recomputed exactly on a
sample of indices.  The library's own `converged` and `passed` flags are
never consulted.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction

DIAGNOSE_DELTAS = (0.05, 0.1, 0.2, 0.4)


def tolerance(exact) -> float:
    """Acceptance tolerance for one eigenvalue: max(1e-9, 1e-6 |gamma|)."""
    return max(1e-9, 1e-6 * abs(float(exact)))


def _basic(m: int, xi: int, n: int) -> Fraction:
    return Fraction(math.comb(n, m), xi ** (n - m)) if n >= m else Fraction(0)


def gamma_exact(spec: dict, n: int) -> Fraction:
    """Exact eigenvalue gamma(n) of a real structured symbol given by its JSON spec."""
    kind = spec["type"]
    if kind == "constant":
        return Fraction(spec["value"])
    if kind == "laguerre_basic":
        return _basic(spec["m"], spec["xi"], n)
    total = Fraction(spec.get("offset", 0))
    for k, c in enumerate(spec["coefficients"]):
        if c:
            total += Fraction(c) * _basic(k, spec["xi"], n)
    return total


def gamma_callable(spec: dict, n: int):
    """Eigenvalue of one of the benchmark's black-box callables.

    gauss  g(x) = exp(-a x^2)       gives (1 + a)^-(n+1);
    chirp  g(x) = cos(b x^2)        gives Re (1 - i b)^-(n+1);
    basic  a Laguerre-Gaussian symbol evaluated by the benchmark's own code.
    """
    kind = spec["kind"]
    if kind == "gauss":
        return (1.0 + spec["a"]) ** -(n + 1)
    if kind == "chirp":
        return ((1.0 - 1j * spec["b"]) ** -(n + 1)).real
    return _basic(spec["m"], spec["xi"], n)


def abs_error(value: complex, exact) -> float:
    """|value - exact|, with the real part subtracted exactly when exact is rational."""
    value = complex(value)
    if isinstance(exact, Fraction):
        return math.hypot(float(abs(Fraction(value.real) - exact)), value.imag)
    return abs(value - exact)


def read_csv(data: bytes) -> tuple[list[dict], list[str]]:
    """CSV rows as dicts, plus the '#' comment lines."""
    text = data.decode("utf-8")
    lines = [row for row in csv.reader(io.StringIO(text)) if row]
    comments = [",".join(row) for row in lines if row[0].startswith("#")]
    table = [row for row in lines if not row[0].startswith("#")]
    header = table[0]
    return [dict(zip(header, row)) for row in table[1:]], comments


# ---------------------------------------------------------------------------
# eigs --engine both


def check_eigs(spec: dict, n_max: int, rc: int, table: bytes) -> list[str]:
    """The closed-form column and the quadrature against the exact value.

    The CSV gives the closed form and the quadrature's distance from it
    (`abs_diff`), so |quadrature - exact| <= closed error + abs_diff; that
    sum, and with it each column's error, must be within the tolerance.
    """
    problems = [] if rc == 0 else [f"exit code {rc}"]
    rows, _ = read_csv(table)
    if [int(r["n"]) for r in rows] != list(range(n_max + 1)):
        return problems + ["rows are not n = 0..n_max"]
    for r in rows:
        n = int(r["n"])
        exact = gamma_exact(spec, n)
        tol = tolerance(exact)
        closed_err = abs_error(complex(float(r["gamma_re"]), float(r["gamma_im"])), exact)
        quad_gap = float(r["abs_diff"])
        if not closed_err + quad_gap <= tol:
            problems.append(
                f"n={n}: closed error {closed_err:.3g} + quadrature gap {quad_gap:.3g} > {tol:.3g}"
            )
    return problems[:5]


# ---------------------------------------------------------------------------
# diagnose


def diagnose_rows(values: list[float], limit: float) -> list[tuple[str, str, float]]:
    """The rows `diagnose` prints, recomputed from the definitions.

    `limit` completes the sequence past the window; the windowed modulus
    also scans pairs that reach into that completion.
    """
    n = len(values)
    rows = [
        (
            "lipschitz_seminorm",
            "",
            max(math.sqrt(i) * abs(values[i] - values[i - 1]) for i in range(1, n)),
        )
    ]

    def value(k):
        return values[k] if k < n else limit

    for delta in DIAGNOSE_DELTAS:
        best = 0.0
        for j in range(n):
            k = j + 1
            while math.sqrt(k) - math.sqrt(j) <= delta:
                best = max(best, abs(value(k) - values[j]))
                k += 1
        rows.append(("modulus", f"delta={delta}", best))
    for k in (1, 2):
        for n_from in sorted({n // 4, n // 2}):
            if n_from + k < n:
                sup = max(abs(values[i] - values[i + k]) for i in range(n_from, n - k))
                rows.append(("shift_diff_sup", f"k={k},n_from={n_from}", sup))
    return rows


def check_diagnose(values: list[float], limit: float, rc: int, table: bytes) -> list[str]:
    problems = [] if rc == 0 else [f"exit code {rc}"]
    rows, _ = read_csv(table)
    got = [(r["quantity"], r["param"], float(r["value"])) for r in rows]
    want = diagnose_rows(values, limit)
    if [g[:2] for g in got] != [w[:2] for w in want]:
        return problems + ["diagnose rows differ from the expected quantities"]
    for (quantity, param, g), (_, _, w) in zip(got, want):
        if abs(g - w) > 1e-12 * max(1.0, abs(w)):
            problems.append(f"{quantity} {param}: {g!r} != {w!r}")
    return problems


# ---------------------------------------------------------------------------
# approximate / verify


def check_plan(
    values: list[float],
    limit: float,
    epsilon: float,
    sample_seed: int,
    rc: int,
    plan_bytes: bytes,
    report_bytes: bytes,
) -> list[str]:
    """Recompute the plan's certificate in exact arithmetic.

    The certificate claims |gamma(n) - sigma(n)| <= verified_error for n up
    to the verification window and <= verified_error + tail_certificate <=
    epsilon for every n, where sigma is the window completed by its limit.
    The claim is checked on a seeded sample of indices, inside and past the
    window; the tail certificate is recomputed exactly; the per-index report
    must agree with the plan bit for bit.
    """
    problems = [] if rc == 0 else [f"exit code {rc}"]
    plan = json.loads(plan_bytes)
    n_terms, xi, nv = plan["N"], plan["xi"], plan["verify_window"]
    verified, tail_cert = plan["verified_error"], plan["tail_certificate"]
    coeffs = [Fraction(c) for c in plan["coefficients"]]
    p = Fraction(plan["p"])
    symbol = {"type": "combo", "xi": xi, "coefficients": plan["coefficients"], "offset": plan["p"]}
    if plan["epsilon"] != epsilon or len(coeffs) != n_terms:
        problems.append("plan epsilon or N inconsistent")
    if not verified + tail_cert <= epsilon:
        problems.append(f"certificate {verified + tail_cert!r} exceeds epsilon {epsilon}")
    for k, c in enumerate(coeffs):
        if abs(float(c) - (values[k] - limit)) > 1e-12:
            problems.append(f"coefficient {k} is not the recentered target value")
            break

    def sigma(n):
        return Fraction(values[n]) if n < len(values) else Fraction(limit)

    # per-index report: rows 0..nv, max abs_error and the summary equal the plan's
    rows, comments = read_csv(report_bytes)
    errors = [float(r["abs_error"]) for r in rows]
    summary = dict(item.split("=", 1) for item in comments[-1].lstrip("# ").split())
    if [int(r["n"]) for r in rows] != list(range(nv + 1)):
        problems.append("report rows are not n = 0..verify_window")
    elif max(errors) != verified:
        problems.append(f"report max {max(errors)!r} != verified_error {verified!r}")
    if (
        float(summary["verified_error"]) != verified
        or float(summary["tail_certificate"]) != tail_cert
        or summary["passed"] != "true"
    ):
        problems.append(f"report summary disagrees with the plan: {summary}")

    # exact error on a seeded sample of indices
    rng = random.Random(sample_seed)
    argmax = errors.index(max(errors)) if errors else 0
    inside = {0, max(n_terms - 1, 0), n_terms, nv, argmax}
    inside.update(rng.randrange(nv + 1) for _ in range(8))
    beyond = {nv + 1 + rng.randrange(3 * nv + 1) for _ in range(4)}
    for n in sorted(inside | beyond):
        err = float(abs(gamma_exact(symbol, n) - sigma(n)))
        bound = verified if n <= nv else verified + tail_cert
        if err > bound * (1 + 1e-9) + 1e-15:
            problems.append(f"n={n}: exact error {err:.6g} exceeds certified {bound:.6g}")
        if n == argmax and abs(err - verified) > 1e-9 * verified + 1e-15:
            problems.append(f"n={n}: exact error {err!r} != verified_error {verified!r}")

    # the tail certificate: each term's eigenvalue at nv + 1 plus the target's residual
    synth_tail = sum(abs(c) * _basic(k, xi, nv + 1) for k, c in enumerate(coeffs))
    target_tail = max((abs(sigma(n) - p) for n in range(nv + 1, len(values))), default=0)
    want = float(synth_tail + target_tail)
    if abs(tail_cert - want) > 1e-9 * want + 1e-300:
        problems.append(f"tail_certificate {tail_cert!r} != exact {want!r}")
    return problems[:5]


def check_verify(rc: int, out_bytes: bytes, plan_bytes: bytes) -> list[str]:
    """`verify` must reproduce the stored certificate bit for bit."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    out, plan = json.loads(out_bytes), json.loads(plan_bytes)
    pairs = (
        ("verified_error", "verified_error"),
        ("tail_certificate", "tail_certificate"),
        ("n_verify", "verify_window"),
        ("epsilon", "epsilon"),
    )
    for got, want in pairs:
        if out[got] != plan[want]:
            problems.append(f"verify {got}={out[got]!r} but plan {want}={plan[want]!r}")
    if out["passed"] is not True:
        problems.append("verify did not pass")
    return problems
