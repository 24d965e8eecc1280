"""One cold set-up of a workload, timed from the start of a fresh interpreter.

    python3 perfbench/setup_once.py --workload NAME --seed N --work DIR

Run from the repository root.  It imports fockradial with all its
dependencies (numpy, scipy, mpmath), generates the seeded inputs into DIR
and runs the workload's warm-up operation.  It prints one JSON line: the
set-up time, the reference kernel's time measured right after it, and the
problems the oracle found in the warm-up's output.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()

    fr = workloads.load_package(Path.cwd() / "src")
    wl = workloads.build(args.workload, args.seed, args.work, fr)
    try:
        output, problems = wl.warmup.collect(wl.warmup.call()), []
    except Exception as exc:  # reported, and counted as a failed operation
        output, problems = None, [f"raised {exc!r}"]
    setup_s = perf_counter() - T0

    import hostspeed  # after the clock stops: its import is not part of the set-up

    ref_s = hostspeed.reference_s(repeats=5)
    if output is not None:
        problems = wl.warmup.check(output)
    print(json.dumps({"setup_s": setup_s, "ref_s": ref_s, "problems": problems}))


if __name__ == "__main__":
    main()
