import pathlib
import runpy
import statistics
import sys

_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "src"))

_acceptance_results: list[tuple[str, str, float]] = []

# Tier-1 time in reference seconds: the benchmark's fixed kernel (perfbench/hostspeed.py,
# read by path and never changed) is timed at session start and after every _KERNEL_EVERY
# tests, and every call phase is scaled by the median of those kernel times.
_HOSTSPEED = _ROOT / "perfbench" / "hostspeed.py"
_hostspeed = runpy.run_path(str(_HOSTSPEED)) if _HOSTSPEED.is_file() else None
_KERNEL_EVERY = 25
_kernel_times: list[float] = []  # kernel seconds
_call_times: list[tuple[str, float]] = []  # (test id, raw seconds of its call phase)


def pytest_sessionstart(session):
    if _hostspeed is not None:
        _kernel_times.append(_hostspeed["reference_s"]())


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        _acceptance_results.append((name, report.outcome, report.duration))
    if _hostspeed is not None:
        _call_times.append((report.nodeid, report.duration))
        if len(_call_times) % _KERNEL_EVERY == 0:
            _kernel_times.append(_hostspeed["reference_s"]())


def _reference_report(terminalreporter):
    """The suite's call phases in reference seconds, in total and for the ten slowest tests."""
    median = statistics.median(_kernel_times)
    scaled = [(raw * _hostspeed["NOMINAL_S"] / median, raw, nodeid) for nodeid, raw in _call_times]
    terminalreporter.write_sep("-", "tier-1 time in reference seconds")
    terminalreporter.write_line(
        f"{len(scaled)} test calls: {sum(s for s, _, _ in scaled):.2f} reference s "
        f"({sum(raw for _, raw, _ in scaled):.2f} raw s); kernel median {1e3 * median:.3f} ms, range "
        f"{1e3 * min(_kernel_times):.3f}-{1e3 * max(_kernel_times):.3f} ms over {len(_kernel_times)} timings, "
        f"nominal {1e3 * _hostspeed['NOMINAL_S']:.3f} ms"
    )
    for ref, raw, nodeid in sorted(scaled, reverse=True)[:10]:
        terminalreporter.write_line(f"{ref:8.3f} ref s {raw:8.3f} raw s  {nodeid}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _call_times:
        _reference_report(terminalreporter)
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome, duration in sorted(_acceptance_results):
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{name}: {verdict} ({duration:.1f}s)")
