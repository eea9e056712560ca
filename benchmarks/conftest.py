"""Shared helpers for the benchmark harness.

Each benchmark regenerates one paper artefact (table or figure) through
the experiment registry, times the regeneration with pytest-benchmark,
and prints the reproduced rows (run with ``-s`` to see them beside the
paper's values).  Correctness is asserted via the registry's tolerance
machinery so a benchmark run doubles as a reproduction check.

The benchmarks' own assertions are their perf floors; the regression
gate across commits is the repository benchmark (``ratbench/``, declared
in ``BENCHMARK.json``).  Every benchmark session also writes one
machine-readable record, ``benchmarks/results/bench-session.json``
(gitignored; CI uploads it): per-test wall time and pass/fail, the
gauges benchmarks record through :func:`record_gauge`, and the
library's own metrics (``experiment.wall_s``, ``experiment.rel_error``,
...).
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys

import pytest

from repro.obs import MetricsRegistry

#: The per-session record (under a gitignored directory, so a benchmark
#: run leaves the worktree clean).
BENCH_RECORD = (
    pathlib.Path(__file__).resolve().parent / "results" / "bench-session.json"
)

#: Session-local registry: isolated from the process-global one so a
#: benchmark run's record is not polluted by unrelated library use.
_registry = MetricsRegistry()


def record_gauge(name: str, value: float) -> None:
    """Record a benchmark-computed measurement into the session record.

    For numbers the harness cannot see from wall time alone — throughput
    ratios, points/sec — so they land next to the per-test timings.
    """
    _registry.gauge(name).set(value)


@pytest.fixture
def show():
    """Print a block with a separating rule (visible under ``-s``)."""

    def _show(text: str) -> None:
        print()
        print(text)
        print("-" * 72)

    return _show


def pytest_runtest_logreport(report: pytest.TestReport) -> None:
    """Record each benchmark's wall time and outcome into the registry."""
    if report.when != "call":
        return
    name = report.nodeid.rsplit("/", 1)[-1]  # e.g. bench_fig2_overlap.py::test_x
    _registry.gauge(f"bench.{name}.wall_s").set(report.duration)
    _registry.counter("bench.total").inc()
    _registry.counter("bench.passed" if report.passed else "bench.failed").inc()
    _registry.histogram("bench.wall_s").observe(report.duration)


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    """Write the session record after every benchmark session."""
    if _registry.counter("bench.total").value == 0:
        return  # collection-only / filtered run: nothing to record
    # Fold in the library's own per-experiment metrics (wall times and
    # prediction-error distribution recorded by Experiment.run).
    from repro.obs import get_metrics

    record = {
        "schema": "rat-bench-record/v1",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "exit_status": int(exitstatus),
        "metrics": _registry.as_dict(),
        "library_metrics": get_metrics().as_dict(),
    }
    BENCH_RECORD.parent.mkdir(parents=True, exist_ok=True)
    BENCH_RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote bench record: {BENCH_RECORD}", file=sys.stderr)
