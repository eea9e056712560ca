"""Run one benchmark workload and print its metrics.

    python3 ratbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a full checkout: the program is imported from
the checkout's ``src/``.  Every line but the last is a diagnostic
(``env``, ``workload``, and in traced runs ``breakdown``); the last is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json from a
plain (untraced) run.  ``--trace 1`` prints the per-layer metrics: the
run splits ``--seconds`` into a plain phase, a phase with the program's
own telemetry on, and a phase with the benchmark's span wrappers
installed.  Metric names, units and bounds live in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from common import (
    BENCH,
    ROOT,
    child_env,
    cpu_ticks,
    emit,
    environment,
    loop_mops,
    median,
    out_path,
    require_checkout,
    steal_share,
)

WORKLOADS = ("explore_grid", "explore_quarantine", "serve_http")
#: Each workload's tail percentile: the highest with at least 10
#: samples beyond it in a run that also repeated from run to run.  In
#: two interleaved 10-seed sets of 30-s runs, p95 spread 0.26-0.34 on
#: serve_http, where p90 spread at most 0.16 on every workload.
TAIL = {
    "explore_grid": 90.0,
    "explore_quarantine": 90.0,
    "serve_http": 90.0,
}
#: Fresh starts per run; set-up time is their median.
SETUP_STARTS = 7
TRACE_SETUP_STARTS = 3
#: Streaming-bandwidth probe: three arrays of this many float64.
STREAM_ROWS = 4 << 20


def probe(workload: str, seed: int, later: bool = False) -> dict:
    """One fresh explore process's set-up (see probe.py)."""
    spawned = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), workload, str(seed),
         repr(spawned)] + (["later"] if later else []),
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def stream_gbytes_per_s() -> float:
    """numpy streaming bandwidth: ``c = a + b``, 24 computed B per row."""
    import numpy as np

    a = np.ones(STREAM_ROWS)
    b = np.ones(STREAM_ROWS)
    c = np.empty(STREAM_ROWS)
    np.add(a, b, out=c)
    times = []
    for _ in range(11):
        start = time.perf_counter()
        np.add(a, b, out=c)
        times.append(time.perf_counter() - start)
    return 24 * STREAM_ROWS / median(times) / 1e9


def plain(workload: str, seed: int, seconds: float):
    problems: list[str] = []
    if workload == "serve_http":
        import serve_wl

        calls = serve_wl.http_calls(seed)
        setups, problems, server = serve_wl.http_setup(calls, SETUP_STARTS)
        phase, stopped = serve_wl.http_phase(server, calls, seconds)
        problems += stopped + serve_wl.status_problems(phase)
    else:
        import explore_wl

        setups = [probe(workload, seed) for _ in range(SETUP_STARTS)]
        phase = explore_wl.plain(workload, seed, seconds)
    metrics = {
        "setup_s": median([s["setup_s"] for s in setups]),
        "peak_rss_mb": phase.rss_mb,
        "points_per_s": phase.points_per_s(),
        "latency_p50_ms": phase.p50_ms(),
        "latency_tail_ms": phase.tail_ms(TAIL[workload]),
    }
    return setups, [phase], problems, metrics


def traced(workload: str, seed: int, seconds: float):
    from phase import breakdown_table

    problems: list[str] = []
    if workload.startswith("explore"):
        import explore_wl

        setups = [
            probe(workload, seed, later=True)
            for _ in range(TRACE_SETUP_STARTS)
        ]
        out = explore_wl.traced(workload, seed, seconds)
        out["metrics"].update({
            f"explore.{name}": median([s[name] for s in setups])
            for name in ("default_heap_ms", "minor_faults_per_op")
        })
    else:
        import serve_wl

        out = serve_wl.http_traced(seed, seconds, TRACE_SETUP_STARTS)
        setups = out["setups"]
        problems += out["problems"]
        for phase in out["phases"]:
            problems += serve_wl.status_problems(phase)
    base, telemetry, spanned = out["phases"]
    metrics = dict(out["metrics"])
    stream = stream_gbytes_per_s()
    routes = {
        route: 0.0 if workload.startswith("explore")
        else median(base.route_latencies(route) or [0.0]) * 1e3
        for route in ("predict", "batch")
    }
    metrics.update({
        "plan.stream_gbytes_per_s": stream,
        "plan.bound_fraction": metrics["plan.gbytes_per_s"] / stream,
        "serve.route_p50_ms.predict": routes["predict"],
        "serve.route_p50_ms.batch": routes["batch"],
        "serve.status_400": float(base.statuses.get(400, 0)),
        "serve.status_other": float(sum(
            n for s, n in base.statuses.items() if s not in (200, 400)
        )),
        "setup.import_s": median([s["import_s"] for s in setups]),
        "setup.first_op_s": median([s["first_op_s"] for s in setups]),
        "obs.telemetry_ratio": telemetry.points_per_s()
        / base.points_per_s(),
        "trace.overhead_ratio": spanned.p50_ms() / base.p50_ms(),
    })
    emit("breakdown", breakdown_table(spanned.trace))
    return setups, out["phases"], problems, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    require_checkout()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    ticks, speed = cpu_ticks(), loop_mops()
    run = traced if args.trace else plain
    setups, phases, problems, metrics = run(
        args.workload, args.seed, args.seconds
    )
    emit("env", {**environment(), "host": {
        "loop_mops_before": round(speed, 3),
        "loop_mops_after": round(loop_mops(), 3),
        "steal_share": round(steal_share(ticks, cpu_ticks()), 4),
    }})
    attempted = len(setups) + sum(p.attempted for p in phases)
    failed = sum(not s["ok"] for s in setups) + sum(
        p.failed for p in phases
    )
    for phase in phases:
        problems += phase.problems
    q = TAIL[args.workload]
    emit("workload", {
        "name": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": [len(p.ops) for p in phases],
        "tail_percentile": q,
        "samples_beyond_tail": phases[0].samples_beyond(q),
        "percentiles_ms": {
            f"p{c:g}": round(phases[0].tail_ms(c), 4)
            for c in (50, 75, 90, 95, 99, 99.9)
        },
        "setup_starts_s": [round(s["setup_s"], 4) for s in setups],
        "minor_faults_per_op": round(phases[0].faults_per_op),
        "allocator": phases[0].allocator,
        "problems": problems,
    })
    # Raw per-op samples of the first phase, for spread analysis.
    out_path(f"ops-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps({"t0": phases[0].t0, "t1": phases[0].t1,
                    "ops": phases[0].ops})
    )
    if args.trace:
        # A layer the workload never reaches reads 0 (see README).
        for m in wanted:
            metrics.setdefault(m["name"], 0.0)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
