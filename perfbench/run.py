"""fockradial benchmark: one workload, one process, one caller in a closed loop.

    python3 perfbench/run.py --workload synthesis --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports the package from `src/`.  The
workload's operations (generated from the seed) run back to back, each
starting when the previous one returned, in passes over the same fixed
list until `--seconds` have elapsed (at least three passes).  The set-ups
are timed apart, each in a fresh interpreter.  Every output is checked
against an independent oracle after the timed loop.  Times are reported in
reference seconds, which follow the host's speed (see `hostspeed.py`).

`--trace 0` prints the end-to-end metrics; `--trace 1` adds one traced pass
with spans around every call into the package's layers and prints the
per-layer metrics.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; a fuller record, with the
environment, goes to `.perfbench/results/`.
"""

import os

# single-threaded numerics; the package's own thread pool stays off
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in _THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("FOCK_RADIAL_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent
N_SETUPS = 7
MIN_PASSES = 3
TAIL_BEYOND = 10


def _timed(op):
    t0 = perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # an operation that raises counts as failed
        result, error = None, exc
    return perf_counter() - t0, result, error


class Ledger:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{label}: {'; '.join(problems)}")


def _outcome(op, result, error):
    """(output, problems) of one finished call; output is None when it raised."""
    if error is not None:
        return None, ["raised " + "".join(traceback.format_exception_only(error)).strip()]
    return op.collect(result), []


def run_pass(ops, on_op=None):
    """One closed-loop pass, the reference kernel timed between operations.

    Returns each operation's latency in reference seconds and in raw
    seconds, and its (output, problems).
    """
    scaled, raw, outcomes = [], [], []
    ref = hostspeed.reference_s()
    for k, op in enumerate(ops):
        if on_op is not None:
            on_op(k)
        dt, result, error = _timed(op)
        after = hostspeed.reference_s()
        scaled.append(dt * hostspeed.scale(ref, after))
        raw.append(dt)
        ref = after
        outcomes.append(_outcome(op, result, error))
    return scaled, raw, outcomes


def run_passes(wl, seconds: float, cold_setup, ledger: Ledger):
    """Closed loop over the op list, with the cold set-ups spread between passes.

    Passes repeat until `seconds` have elapsed, set-ups included, and at
    least MIN_PASSES are done; set-ups still missing then run after the
    last pass.  Outputs of the first pass go to the oracles after the
    loop; every later pass must reproduce them exactly.  Returns per-op
    latencies (reference and raw seconds), the passes' walls in reference
    seconds, the first pass's (output, problems) per op, and the set-ups.
    """
    scaled = [[] for _ in wl.ops]
    raw = [[] for _ in wl.ops]
    walls, first, later, setups = [], None, [[] for _ in wl.ops], []
    start = perf_counter()
    while len(walls) < MIN_PASSES or perf_counter() - start < seconds:
        if len(setups) < N_SETUPS:
            setups.append(cold_setup())
        pass_scaled, pass_raw, outcomes = run_pass(wl.ops)
        walls.append(sum(pass_scaled))
        for k, (s, r) in enumerate(zip(pass_scaled, pass_raw)):
            scaled[k].append(s)
            raw[k].append(r)
        if first is None:
            first = outcomes
            continue
        for k, (output, problems) in enumerate(outcomes):
            if not problems and output != first[k][0]:
                problems = ["output differs from the first pass"]
            later[k].append(problems)
    while len(setups) < N_SETUPS:
        setups.append(cold_setup())
    for k, op in enumerate(wl.ops):
        output, problems = first[k]
        if output is not None:
            problems = op.check(output)
        ledger.record(op.label, problems)
        for repeat in later[k]:
            ledger.record(op.label, repeat or problems)
        first[k] = output, problems
    return scaled, raw, walls, first, setups


def _tail(values):
    """Value at the highest percentile with TAIL_BEYOND values beyond it, and that percentile."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND  # 1-based rank; TAIL_BEYOND values lie above it
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def _environment() -> dict:
    import numpy as np
    import scipy

    try:  # git may not look above the checkout, which need not be a repository
        sha = subprocess.run(
            ["git", "rev-parse", "--verify", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30, check=False,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    mp = sys.modules.get("mpmath")
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": getattr(mp, "__version__", None),
        "longdouble_eps": str(np.finfo(np.longdouble).eps),
        "threads": {var: os.environ[var] for var in _THREAD_VARS},
        "FOCK_RADIAL_THREADS": os.environ.get("FOCK_RADIAL_THREADS"),
    }


def _exact_value(fr, wl):
    """Oracle eigenvalue of a symbol seen inside the traced run, or None if unknown."""

    def exact(sym, n):
        evaluator = getattr(sym, "evaluator", None)
        if evaluator is not None:
            spec = wl.callables.get(id(evaluator))
            return None if spec is None else oracles.gamma_callable(spec, n)
        return oracles.gamma_exact(fr.symbols.symbol_to_json(sym), n)

    return exact


def traced_run(fr, wl, first, untraced_wall: float, ledger: Ledger, spans_path: Path):
    """One traced pass, then the known-defect probes; returns per-layer metrics and self-check problems."""
    tracer = tracing.Tracer()
    wl.user_points[0] = 0
    probe_runs = []
    tracer.install(fr)
    try:
        scaled, _, outputs = run_pass(wl.ops, on_op=lambda k: setattr(tracer, "op", k))
        user_points = wl.user_points[0]
        for i, probe in enumerate(wl.probes):
            tracer.op = f"probe{i}"
            probe_runs.append(_timed(probe))
    finally:
        tracer.uninstall()
    tracer.write(spans_path)

    for op, (output, problems), (want, checked) in zip(wl.ops, outputs, first):
        if not problems:
            problems = checked if output == want else ["traced output differs from the untraced one"]
        ledger.record(op.label, problems)

    exact = _exact_value(fr, wl)
    layer = tracer.per_layer(lambda op: isinstance(op, int), exact)
    layer["symbols.user_callable_points"] = user_points
    layer["cli.bytes_written"] = sum(op.bytes_written(out) for op, (out, _) in zip(wl.ops, outputs) if out)
    layer["trace.overhead_frac"] = sum(scaled) / untraced_wall - 1.0

    expected = {
        "eigenvalues.quad_calls": sum(op.quad_calls for op in wl.ops),
        "approx.verify_indices": sum(
            op.verify_indices(out) for op, (out, _) in zip(wl.ops, first) if out is not None
        ),
        "cli.main_calls": sum(op.cli for op in wl.ops),
    }
    self_check = [
        f"{name}: traced {layer[name]} != expected {want}"
        for name, want in expected.items()
        if layer[name] != want
    ]

    # the probes are not workload operations: they are reported, never counted as failed
    layer["probe.fail"] = layer["probe.quad_flag_wrong"] = 0
    for i, (probe, (dt, result, error)) in enumerate(zip(wl.probes, probe_runs)):
        stats = tracer.per_layer(lambda op: op == f"probe{i}", exact)
        output, problems = _outcome(probe, result, error)
        if output is not None:
            problems = probe.check(output)
        layer["probe.fail"] += int(bool(problems))
        layer["probe.quad_flag_wrong"] += stats["eigenvalues.quad_flag_wrong"]
        if stats["eigenvalues.quad_calls"] != probe.quad_calls:
            self_check.append(f"{probe.label}: gamma_quadrature calls differ from n_max + 1")
        if problems:
            print(f"known-defect probe ({dt:.2f} s) {probe.label}: {'; '.join(problems)}", file=sys.stderr)
    return layer, self_check


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fockradial" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    setup_records = []

    def cold_setup():
        """Import, seeded inputs and one warm-up, in a fresh interpreter; returns reference seconds."""
        before = hostspeed.reference_s()
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "setup_once.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--work", str(work / f"setup{len(setup_records)}"),
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited with {proc.returncode}: {proc.stderr[-2000:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        setup_records.append(record)
        ledger.record("warm-up in a fresh interpreter", record["problems"])
        return record["setup_s"] * hostspeed.scale(before, record["ref_s"])

    try:
        fr = workloads.load_package(SRC)
        mpmath_imported = "mpmath" in sys.modules
        wl = workloads.build(args.workload, args.seed, work / "run", fr)
        _, result, error = _timed(wl.warmup)
        output, problems = _outcome(wl.warmup, result, error)
        ledger.record(wl.warmup.label, problems or wl.warmup.check(output))

        scaled, raw, walls, first, setups = run_passes(wl, args.seconds, cold_setup, ledger)
        # each operation at the lower quartile of its repeats: a slow spell
        # that hits a few repeats does not move it, and it rests on more
        # repeats than the single fastest one
        per_op = [statistics.quantiles(lat, n=4, method="inclusive")[0] for lat in scaled]
        tail, tail_pct = _tail(per_op)
        e2e = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(per_op),
            "op_p50_s": statistics.median(per_op),
            "op_tail_s": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        self_check = []
        if args.trace:
            layer, self_check = traced_run(
                fr, wl, first, statistics.median(walls), ledger, results / f"{tag}.spans.jsonl"
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = {"mpmath_imported": mpmath_imported, **_environment()}
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = layer if args.trace else e2e
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = ledger.failed == 0 and not self_check
    n_ops, n_passes = len(wl.ops), len(walls)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "reference_nominal_s": hostspeed.NOMINAL_S,
        "passes": n_passes,
        "ops_per_pass": n_ops,
        "op_tail_percentile": tail_pct,
        "op_tail_ops": n_ops,
        "setups": setup_records,
        "setups_reference_s": setups,
        "pass_walls_reference_s": walls,
        "end_to_end": e2e,
        "fail_frac": ledger.failed / ledger.attempted,
        "failures": ledger.reasons,
        "self_check": self_check,
        "ops": [
            {"label": op.label, "latencies_reference_s": s, "latencies_raw_s": r}
            for op, s, r in zip(wl.ops, scaled, raw)
        ],
        "metrics": metrics,
    }
    (results / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for reason in ledger.reasons + self_check:
        print(f"FAIL {reason}", file=sys.stderr)
    raw_wall = sum(statistics.quantiles(lat, n=4, method="inclusive")[0] for lat in raw)
    print(f"workload={args.workload} seed={args.seed} passes={n_passes} ops/pass={n_ops}")
    print(f"  times in reference seconds: raw time x {hostspeed.NOMINAL_S:g} s / reference kernel time beside it")
    print(f"  setup_s      {e2e['setup_s']:.6f} s   median of {N_SETUPS} cold set-ups")
    print(f"  each op at the lower quartile of its {n_passes} repeats")
    print(f"  wall_s       {e2e['wall_s']:.6f} s   sum over the {n_ops} ops ({raw_wall:.6f} s raw)")
    print(f"  op_p50_s     {e2e['op_p50_s']:.6f} s   median over the {n_ops} ops")
    print(f"  op_tail_s    {tail:.6f} s   p{tail_pct:.1f} over the {n_ops} ops, {TAIL_BEYOND} beyond it")
    print(f"  fail_frac    {record['fail_frac']:.6f}     {ledger.failed} of {ledger.attempted} operations")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name:34s} {metric['value']!r} {metric['unit']}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
