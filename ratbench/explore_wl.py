"""explore_grid and explore_quarantine: closed-loop ``explore()`` calls.

One caller, one thread: each ``explore()`` call starts when the last
one returned and was checked.  The check runs outside the call's span.

The timed loops run with glibc told to keep freed memory in the
process (``mallopt``: no mmap-backed chunks, no heap trimming), so a
call reuses the pages the previous one freed instead of faulting in
~75-190 MB afresh.  The gated explore timings therefore leave out the
page faults a caller under glibc's default allocator pays on every
call.  With the default allocator, how many pages a call faults
depends on which small object sits at the heap top and on
transparent-hugepage availability; on a 2-vCPU Xeon VM that flipped a
1e6-point call between ~110 and ~150 ms from process to process and
over minutes, where with retained memory calls repeat within ~2%.
Fault cost is still measured: the fresh-process set-up probes keep the
default allocator, so first-touch cost is in ``setup_s``, and in
traced runs they also time a later call (:func:`default_heap_call`),
reported as ``explore.default_heap_ms`` and
``explore.minor_faults_per_op``.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import resource
import time

import repro.explore
from repro.obs import configure, configure_logging, get_tracer, reset_logging

import inputs
from common import median, out_path, peak_rss_mb_self
from phase import Phase, layer_metrics
from spans import ROOT, Recorder, Trace

#: Distinct design spaces per run, explored in turn.
SPACES = 2
WARMUP_CALLS = 2

# glibc mallopt parameters.
_M_TRIM_THRESHOLD = -1
_M_MMAP_MAX = -4


def retain_freed_memory() -> bool:
    """Keep freed memory in the process; False where glibc is absent."""
    mallopt = getattr(ctypes.CDLL(ctypes.util.find_library("c")),
                      "mallopt", None)
    return mallopt is not None and bool(
        mallopt(_M_MMAP_MAX, 0) and mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)
    )


def _space(workload: str, seed: int, k: int):
    """Space ``k`` of a run, its invalid-point mask and its policy."""
    if workload == "explore_grid":
        return inputs.grid_space(seed, k), None, "fail"
    space, bad = inputs.quarantine_space(seed, k)
    return space, bad, "quarantine"


def build(workload: str, seed: int) -> list[inputs.ExploreCase]:
    cases = []
    for k in range(SPACES):
        space, bad, on_error = _space(workload, seed, k)
        cases.append(inputs.explore_case(space, bad, seed, k, on_error))
    return cases


def call(space, on_error: str):
    """One operation: the default path for grids, quarantine otherwise."""
    if on_error == "fail":
        return repro.explore.explore(space)
    return repro.explore.explore(space, on_error=on_error)


def run_phase(
    cases: list[inputs.ExploreCase], seconds: float,
    recorder: Recorder | None = None,
) -> Phase:
    phase = Phase(serial=True)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    deadline = time.perf_counter() + seconds
    phase.t0 = time.perf_counter()
    k = 0
    while True:
        case = cases[k % len(cases)]
        if recorder is not None:
            op_token = recorder.op.set(k)
            sid, token = recorder.open(ROOT)
        start = time.perf_counter()
        result = call(case.space, case.on_error)
        end = time.perf_counter()
        if recorder is not None:
            recorder.close(sid, token)
            recorder.op.reset(op_token)
        problems = inputs.check_explore(result, case)
        for text in problems:
            phase.problem(f"op {k}: {text}")
        phase.record(start, end, len(case.space), not problems)
        phase.failed_points.append(len(result.failures))
        del result  # free ~150 MB before the next call
        k += 1
        if end >= deadline:
            break
    phase.t1 = time.perf_counter()
    phase.rss_mb = peak_rss_mb_self()
    phase.faults_per_op = (
        resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    ) / phase.attempted
    return phase


def warm(cases: list[inputs.ExploreCase]) -> None:
    for _ in range(WARMUP_CALLS):
        for case in cases:
            call(case.space, case.on_error)


def plain(workload: str, seed: int, seconds: float) -> Phase:
    retained = retain_freed_memory()
    cases = build(workload, seed)
    warm(cases)
    phase = run_phase(cases, seconds)
    phase.allocator = "retained" if retained else "default"
    return phase


def traced(workload: str, seed: int, seconds: float) -> dict[str, object]:
    """Plain, telemetry-on and traced phases, a third of the time each."""
    retained = retain_freed_memory()
    cases = build(workload, seed)
    warm(cases)
    share = seconds / 3.0
    base = run_phase(cases, share)
    base.allocator = "retained" if retained else "default"

    configure(trace=True)
    configure_logging(str(out_path(f"{workload}-log.jsonl")))
    try:
        telemetry = run_phase(cases, share)
    finally:
        configure(trace=False)
        get_tracer().clear()
        reset_logging()
        out_path(f"{workload}-log.jsonl").unlink(missing_ok=True)

    recorder = Recorder()
    recorder.install_explore()
    try:
        call(cases[0].space, cases[0].on_error)  # settle the wrappers
        recorder.spans.clear()
        spanned = run_phase(cases, share, recorder)
    finally:
        recorder.uninstall()
    trace = Trace(recorder.spans, spanned.t0, spanned.t1)
    recorder.dump(str(out_path(f"spans-{workload}.json")))
    spanned.trace = trace

    metrics = layer_metrics(trace)
    ops = list(trace.roots)
    metrics.update({
        "explore.stage_ms": _ms(trace.durations("explore.space.to_batch")),
        "explore.quarantine_ms": _ms(
            trace.durations("explore.runtime.quarantine_rows")
        ),
        "explore.take_ms": median([
            trace.per_op(op, ("core.batch.take",
                              "core.batch.mark_rows_valid"))
            for op in ops
        ]) * 1e3,
        "explore.dispatch_ms": _ms([
            trace.self_time(i)
            for i in trace.ids("explore.runtime.run_chunks")
        ]),
        "explore.assemble_ms": _ms([
            trace.self_time(i)
            for i in trace.ids("explore.executor.explore")
        ]),
        "explore.kernel_share": median([
            trace.per_op(op, ("core.plan.evaluate",))
            / trace.per_op(op, ("explore.executor.explore",))
            for op in ops
        ]),
        "explore.failed_points": median(base.failed_points),
    })
    return {"phases": [base, telemetry, spanned], "metrics": metrics}


def _ms(values: list[float]) -> float:
    return median(values) * 1e3 if values else 0.0


def first_op(workload: str, seed: int) -> tuple[bool, float]:
    """A fresh process's first operation; returns (correct, done time)."""
    space, bad, on_error = _space(workload, seed, 0)
    result = call(space, on_error)
    done = time.perf_counter()
    case = inputs.explore_case(space, bad, seed, 0, on_error)
    return not inputs.check_explore(result, case), done


def default_heap_call(workload: str, seed: int) -> dict[str, float]:
    """Time and page faults of a later call under the default allocator.

    Run in a fresh process after :func:`first_op`: one more call settles
    glibc's dynamic mmap threshold, and the call after it is measured.
    """
    space, _, on_error = _space(workload, seed, 0)
    call(space, on_error)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    call(space, on_error)
    elapsed = time.perf_counter() - start
    return {
        "default_heap_ms": elapsed * 1e3,
        "minor_faults_per_op": float(
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        ),
    }
