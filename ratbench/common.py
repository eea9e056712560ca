"""Helpers shared by the benchmark's entry points.

Everything here is benchmark-side: locating the checkout, statistics,
bitwise comparison, the run environment record, and spawning children
with the checkout's ``src/`` on their import path.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import struct
import sys
import time
from pathlib import Path

#: The checkout root: the directory holding ``ratbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "ratbench"
#: Scratch output (spans, telemetry files, server logs); git-ignored.
OUT = ROOT / ".ratbench"


def require_checkout() -> None:
    """Exit 2 unless the program's sources sit beside the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: program sources not found under {SRC}; run from a "
            "full checkout",
            file=sys.stderr,
        )
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for a child Python process that imports ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def out_path(name: str) -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT / name


# ---- statistics ------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def window_rate(
    ops: list[tuple[float, float, float]], t0: float, t1: float
) -> float:
    """Points per second over [t0, t1] of ``(start, end, points)`` ops.

    Each op's points are spread uniformly over its span, so an op that
    straddles an edge of the window counts only for its part inside.
    """
    total = 0.0
    for start, end, points in ops:
        lo, hi = max(start, t0), min(end, t1)
        if hi > lo and points:
            total += points * (hi - lo) / (end - start)
    return total / (t1 - t0)


def busy_timeline(
    ops: list[tuple[float, float, float]]
) -> list[tuple[float, float, float]]:
    """Re-time serial ops onto a clock that runs only inside op spans.

    Serial workloads check each result between ops; this drops those
    gaps so throughput is measured over the operations themselves.
    """
    clock = 0.0
    shifted = []
    for start, end, points in ops:
        shifted.append((clock, clock + (end - start), points))
        clock += end - start
    return shifted


# ---- bitwise comparison ----------------------------------------------------


def same_bits(a: float, b: float) -> bool:
    """IEEE-754 identity (distinguishes -0.0, matches NaN payloads)."""
    return struct.pack("<d", a) == struct.pack("<d", b)


# ---- run environment -------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def environment() -> dict[str, object]:
    """nproc, CPU model, interpreter/numpy versions, hugepage mode."""
    import numpy

    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    thp = _read("/sys/kernel/mm/transparent_hugepage/enabled").strip()
    if "[" in thp:
        thp = thp.split("[", 1)[1].split("]", 1)[0]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thp": thp or "unknown",
    }


#: Iterations of the host-speed probe's pure-Python loop.
LOOP_ITERATIONS = 200_000


def loop_mops() -> float:
    """Host speed now: a fixed pure-Python loop's median rate, Mop/s.

    The loop touches no memory to speak of, so its rate follows the
    CPU's speed state alone; a run records it before and after, and a
    set of runs that spans a change of host speed shows in it.
    """
    rates = []
    for _ in range(7):
        start = time.perf_counter()
        total = 0
        for i in range(LOOP_ITERATIONS):
            total += i * i
        rates.append(LOOP_ITERATIONS / (time.perf_counter() - start) / 1e6)
    return median(rates)


def cpu_ticks() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (empty where absent)."""
    line = _read("/proc/stat").split("\n", 1)[0].split()
    return [int(x) for x in line[1:]] if line[:1] == ["cpu"] else []


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor stole between two readings."""
    if len(before) < 8 or len(after) < 8:
        return math.nan
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def peak_rss_mb_self() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """VmHWM (peak resident set) of a live process, in MB."""
    for line in _read(f"/proc/{pid}/status").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return math.nan


def emit(label: str, payload: object) -> None:
    """One diagnostic line on stdout (the result is always the last)."""
    print(f"{label} {json.dumps(payload, sort_keys=True)}", flush=True)
