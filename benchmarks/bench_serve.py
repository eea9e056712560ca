"""Load benchmark for the ``repro.serve`` prediction service.

Four measurements, all recorded into the session record
(``benchmarks/results/bench-session.json``, see ``conftest.BENCH_RECORD``):

* **Micro-batching win**: the same request stream driven through the
  application layer at concurrency 64, once with coalescing enabled
  (``max_batch_size=256``) and once with ``max_batch_size=1``
  (batch-size-1 serving — every request pays the full scalar staging +
  numpy dispatch pipeline alone).  Micro-batched serving must deliver
  >= 4x the RPS, as the median ratio of five interleaved pairs: a
  single pair swings 3.4-5.6x on a 2-vCPU host, too wide to tell a
  20% regression from noise.  Driving :meth:`RATApp.handle` directly keeps the
  client's cost out of the comparison — on a single-core runner an
  in-process HTTP client would spend as much CPU generating load as the
  server spends serving it, capping any measurable ratio at ~2-3x
  regardless of how good the batcher is.
* **HTTP service profile**: RPS and p50/p99 latency through real
  sockets at concurrency 4 / 16 / 64, the numbers a capacity planner
  would quote.
* **Shard scale curve**: cluster-mode RPS at 1 / 2 / 4 / 8 shards
  through real sockets (``serve.shard<N>_rps``), plus the scaling
  ratios ``serve.shard_scaling_2x`` / ``_4x`` / ``_8x``.  The >= 1.5x
  2-shard floor is asserted only on machines with >= 2 CPUs — on a
  single-core box every shard multiplexes one core and the honest
  curve is flat (~1.0x), which the session record preserves rather
  than hides.
* **Autoscale trace**: a ``--max-shards`` cluster under a queue-depth
  load step — shard count and smoothed queue depth sampled over time
  (``serve.autoscale_trace[i].*``), per-step RPS, and the
  scale-up/retire counts.  Asserts the cluster grows under the step
  and settles back to the floor at idle with zero restarts.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -s``
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import threading
import time

from repro.serve import RATApp, RATServer, Request, RestartPolicy, Supervisor

from .conftest import record_gauge

WORKSHEET = {
    "name": "1-D PDF",
    "elements_in": 512,
    "elements_out": 1,
    "bytes_per_element": 4,
    "throughput_ideal_mbps": 1000.0,
    "alpha_write": 0.37,
    "alpha_read": 0.16,
    "ops_per_element": 768,
    "throughput_proc": 20.0,
    "clock_mhz": 150.0,
    "t_soft": 0.578,
    "n_iterations": 400,
}

_BODY = json.dumps(WORKSHEET).encode()
_WIRE = (
    b"POST /v1/predict HTTP/1.1\r\nHost: bench\r\n"
    b"Content-Length: " + str(len(_BODY)).encode() + b"\r\n\r\n" + _BODY
)


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return float("nan")
    index = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[index]


async def _app_load(app: RATApp, total: int, concurrency: int):
    """Drive ``total`` /v1/predict requests through the app layer with
    ``concurrency`` workers; return (rps, p50_s, p99_s)."""
    request = Request(
        "POST", "/v1/predict",
        {"content-length": str(len(_BODY))}, _BODY,
    )
    latencies: list[float] = []
    remaining = iter(range(total))

    async def worker():
        for _ in remaining:
            t0 = time.perf_counter()
            response = await app.handle(request)
            latencies.append(time.perf_counter() - t0)
            assert response.status == 200, response.body

    started = time.perf_counter()
    await asyncio.gather(*[worker() for _ in range(concurrency)])
    elapsed = time.perf_counter() - started
    latencies.sort()
    return (
        total / elapsed,
        _percentile(latencies, 0.50),
        _percentile(latencies, 0.99),
    )


async def _http_load(port: int, total: int, concurrency: int):
    """Same measurement through real sockets (keep-alive connections)."""
    latencies: list[float] = []
    per_worker = total // concurrency

    async def worker():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            for _ in range(per_worker):
                t0 = time.perf_counter()
                writer.write(_WIRE)
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                length = 0
                for line in head.lower().split(b"\r\n"):
                    if line.startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                await reader.readexactly(length)
                latencies.append(time.perf_counter() - t0)
                assert b" 200 " in head.split(b"\r\n", 1)[0]
        finally:
            writer.close()
            await writer.wait_closed()

    started = time.perf_counter()
    await asyncio.gather(*[worker() for _ in range(concurrency)])
    elapsed = time.perf_counter() - started
    latencies.sort()
    return (
        per_worker * concurrency / elapsed,
        _percentile(latencies, 0.50),
        _percentile(latencies, 0.99),
    )


def test_microbatch_vs_unbatched_rps(show):
    """>= 4x RPS from micro-batching at concurrency 64 versus
    batch-size-1 serving, as the median over interleaved pairs (see
    the module docstring)."""
    total, concurrency, pairs = 4096, 64, 5

    async def measure(max_batch_size):
        app = RATApp(max_batch_size=max_batch_size)
        await app.startup()
        try:
            await _app_load(app, 512, concurrency)  # warm numpy/code paths
            return await _app_load(app, total, concurrency)
        finally:
            await app.shutdown()

    async def scenario():
        runs = []
        for i in range(pairs):
            # Alternate which side runs first, so drift in the host's
            # speed falls on both sides alike.
            if i % 2:
                unbatched = await measure(1)
                batched = await measure(256)
            else:
                batched = await measure(256)
                unbatched = await measure(1)
            runs.append((batched, unbatched))
        return runs

    runs = asyncio.run(scenario())
    ratios = [b[0] / u[0] for b, u in runs]
    ratio = statistics.median(ratios)
    b_rps, b_p50, b_p99 = (
        statistics.median(b[k] for b, _ in runs) for k in range(3)
    )
    u_rps, u_p50, u_p99 = (
        statistics.median(u[k] for _, u in runs) for k in range(3)
    )
    record_gauge("serve.microbatched_rps", b_rps)
    record_gauge("serve.microbatched_p50_us", b_p50 * 1e6)
    record_gauge("serve.microbatched_p99_us", b_p99 * 1e6)
    record_gauge("serve.unbatched_rps", u_rps)
    record_gauge("serve.unbatched_p50_us", u_p50 * 1e6)
    record_gauge("serve.unbatched_p99_us", u_p99 * 1e6)
    record_gauge("serve.rps_ratio", ratio)
    for i, pair_ratio in enumerate(ratios):
        record_gauge(f"serve.rps_ratio_pairs[{i}]", pair_ratio)
    show(
        f"micro-batched: {b_rps:,.0f} req/s "
        f"(p50 {b_p50 * 1e6:.0f}us, p99 {b_p99 * 1e6:.0f}us)\n"
        f"batch-size-1:  {u_rps:,.0f} req/s "
        f"(p50 {u_p50 * 1e6:.0f}us, p99 {u_p99 * 1e6:.0f}us)\n"
        f"pair ratios: {', '.join(f'{r:.1f}x' for r in ratios)}\n"
        f"median ratio: {ratio:.1f}x at concurrency {concurrency} "
        "(medians over the pairs)"
    )
    assert ratio >= 4.0, (
        f"micro-batching delivered a median {ratio:.1f}x over "
        f"batch-size-1 serving at concurrency {concurrency} (need >= 4x; "
        f"pairs: {', '.join(f'{r:.1f}x' for r in ratios)})"
    )


def test_http_service_profile(show):
    """RPS and latency percentiles through real sockets at several
    concurrency levels (client and server share one core + one loop, so
    these are conservative lower bounds)."""
    levels = (4, 16, 64)
    total = 2048

    async def scenario():
        app = RATApp(max_batch_size=256)
        server = RATServer(app, host="127.0.0.1", port=0)
        await server.start()
        results = {}
        await _http_load(server.port, 256, 4)  # warm-up
        for concurrency in levels:
            results[concurrency] = await _http_load(
                server.port, total, concurrency
            )
        await server.shutdown()
        return results

    results = asyncio.run(scenario())
    lines = []
    for concurrency, (rps, p50, p99) in results.items():
        record_gauge(f"serve.http_c{concurrency}_rps", rps)
        record_gauge(f"serve.http_c{concurrency}_p50_us", p50 * 1e6)
        record_gauge(f"serve.http_c{concurrency}_p99_us", p99 * 1e6)
        lines.append(
            f"concurrency {concurrency:3d}: {rps:7,.0f} req/s  "
            f"p50 {p50 * 1e6:7.0f}us  p99 {p99 * 1e6:7.0f}us"
        )
    show("\n".join(lines))
    for concurrency, (rps, _, _) in results.items():
        assert rps > 100, f"implausibly low RPS at c={concurrency}: {rps}"


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _cluster_rps(shards: int, total: int, concurrency: int) -> float:
    """Boot a real shard cluster, drive HTTP load at it, return RPS."""
    supervisor = Supervisor(
        shards=shards,
        min_shards=1,
        host="127.0.0.1",
        port=0,
        quiet=True,
        policy=RestartPolicy(budget=3, window_s=30.0),
        boot_timeout_s=120.0,
        max_batch_size=256,
    )
    supervisor.start()
    thread = threading.Thread(target=supervisor.run, daemon=True)
    thread.start()
    try:
        assert supervisor.wait_ready(shards, timeout_s=120.0), (
            f"{shards}-shard cluster never became ready"
        )
        port = supervisor.status()["port"]
        asyncio.run(_http_load(port, 512, 8))  # warm every shard's plan
        rps, _, _ = asyncio.run(_http_load(port, total, concurrency))
        assert supervisor.status()["restarts"] == 0, (
            "shards restarted mid-benchmark; numbers untrustworthy"
        )
        return rps
    finally:
        supervisor.stop()
        supervisor.wait_finished(timeout_s=30.0)
        thread.join(timeout=30.0)


def test_shard_scaling_curve(show):
    """Cluster RPS at 1 / 2 / 4 / 8 shards (acceptance: 2-shard >=
    1.5x single-shard, asserted only where a second core exists to
    scale onto; the recorded curve is honest either way — the 8-shard
    point is always recorded, so multi-core runners document where the
    curve bends)."""
    total, concurrency = 2048, 32
    cpus = _cpu_count()

    curve = {}
    for shards in (1, 2, 4, 8):
        curve[shards] = _cluster_rps(shards, total, concurrency)
        record_gauge(f"serve.shard{shards}_rps", curve[shards])

    scaling_2x = curve[2] / curve[1]
    scaling_4x = curve[4] / curve[1]
    scaling_8x = curve[8] / curve[1]
    record_gauge("serve.shard_scaling_2x", scaling_2x)
    record_gauge("serve.shard_scaling_4x", scaling_4x)
    record_gauge("serve.shard_scaling_8x", scaling_8x)
    show(
        "\n".join(
            f"{shards} shard(s): {rps:7,.0f} req/s  "
            f"({rps / curve[1]:.2f}x single-shard)"
            for shards, rps in curve.items()
        )
        + f"\ncpus visible: {cpus}"
    )
    for shards, rps in curve.items():
        assert rps > 100, f"implausibly low RPS at {shards} shards: {rps}"
    if cpus >= 8:
        assert scaling_8x >= 1.5, (
            f"8-shard cluster delivered only {scaling_8x:.2f}x the "
            f"single-shard RPS on a {cpus}-CPU machine (need >= 1.5x)"
        )
    if cpus >= 2:
        assert scaling_2x >= 1.5, (
            f"2-shard cluster delivered only {scaling_2x:.2f}x the "
            f"single-shard RPS on a {cpus}-CPU machine (need >= 1.5x)"
        )
    else:
        # One core: shards time-slice it and each shard's micro-batcher
        # sees half the coalescing opportunity, so honest scaling sits
        # at 0.6-0.9x (run-to-run).  Only guard against pathological
        # collapse from supervisor/IPC overhead.
        assert scaling_2x >= 0.4, (
            f"2-shard cluster lost {1 - scaling_2x:.0%} throughput on a "
            f"single core; cluster overhead is pathological"
        )


def _downsample(trace: list[dict], limit: int) -> list[dict]:
    if len(trace) <= limit:
        return trace
    step = len(trace) / limit
    return [trace[int(i * step)] for i in range(limit)]


def test_autoscale_trace(show):
    """Queue-depth autoscaling under a load step: the shard count must
    rise while the step is applied and settle back to ``min_shards``
    at idle, with every request answered (``_http_load`` asserts each
    response) and zero crash-restarts.  The sampled (time, shards,
    depth-EWMA) trace and per-step RPS land in the session record so
    the curve shows when capacity arrived and left."""
    supervisor = Supervisor(
        shards=1,
        min_shards=1,
        host="127.0.0.1",
        port=0,
        quiet=True,
        policy=RestartPolicy(budget=3, window_s=30.0),
        boot_timeout_s=120.0,
        heartbeat_interval_s=0.1,
        max_shards=4,
        scale_up_depth=2.0,
        scale_down_depth=0.5,
        scale_cooldown_s=0.5,
        scale_smoothing_s=0.25,
        max_batch_size=256,
    )
    supervisor.start()
    thread = threading.Thread(target=supervisor.run, daemon=True)
    thread.start()
    trace: list[dict] = []
    done = threading.Event()

    def sampler():
        t0 = time.perf_counter()
        while not done.is_set():
            status = supervisor.status()
            trace.append({
                "t_s": round(time.perf_counter() - t0, 3),
                "shards": len(status["shards"]),
                "ready": status["ready_shards"],
                "depth_ewma": round(status["queue_depth_ewma"], 3),
            })
            time.sleep(0.1)

    sampler_thread = threading.Thread(target=sampler, daemon=True)
    try:
        assert supervisor.wait_ready(1, timeout_s=120.0)
        port = supervisor.status()["port"]
        asyncio.run(_http_load(port, 512, 8))  # warm the plan cache
        sampler_thread.start()

        # Load step: keep the queue deep until a second shard is READY
        # (spawning + numpy import happen under load) or the budget
        # runs out.  Reconnecting per round lets SO_REUSEPORT spread
        # the later rounds across the new shards.
        step_rps: list[float] = []
        deadline = time.perf_counter() + 60.0
        while time.perf_counter() < deadline:
            rps, _, _ = asyncio.run(_http_load(port, 2048, 32))
            step_rps.append(rps)
            if supervisor.status()["ready_shards"] >= 2:
                break
        status = supervisor.status()
        peak_shards = max(sample["shards"] for sample in trace)
        assert peak_shards >= 2, (
            f"load step never grew the cluster (trace peak "
            f"{peak_shards}, depth ewma {status['queue_depth_ewma']:.2f})"
        )
        assert status["scale_ups"] >= 1

        # Idle: the depth EWMA decays below the retire threshold and
        # the newest shards drain away back to the floor.
        settle_deadline = time.perf_counter() + 90.0
        settled_at = None
        while time.perf_counter() < settle_deadline:
            status = supervisor.status()
            if len(status["shards"]) == 1 and status["ready_shards"] == 1:
                settled_at = time.perf_counter()
                break
            time.sleep(0.2)
        assert settled_at is not None, (
            f"cluster never settled back to min_shards at idle: "
            f"{len(status['shards'])} shards, {status['ready_shards']} ready"
        )
        assert status["scale_downs"] >= 1
        assert status["restarts"] == 0, (
            "shards crash-restarted during the autoscale trace"
        )
        assert status["benched"] == []
    finally:
        done.set()
        supervisor.stop()
        supervisor.wait_finished(timeout_s=30.0)
        thread.join(timeout=30.0)
        sampler_thread.join(timeout=5.0)

    for i, sample in enumerate(_downsample(trace, 16)):
        record_gauge(f"serve.autoscale_trace[{i}].t_s", sample["t_s"])
        record_gauge(f"serve.autoscale_trace[{i}].shards", sample["shards"])
        record_gauge(
            f"serve.autoscale_trace[{i}].depth_ewma", sample["depth_ewma"]
        )
    for i, rps in enumerate(step_rps):
        record_gauge(f"serve.autoscale_step[{i}].rps", rps)
    # A spawn can land just as the load stops, so the true peak is the
    # full trace's, not the mid-test snapshot used for the assert.
    peak_shards = max(sample["shards"] for sample in trace)
    record_gauge("serve.autoscale_peak_shards", peak_shards)
    record_gauge("serve.autoscale_scale_ups", supervisor.scale_ups)
    record_gauge("serve.autoscale_scale_downs", supervisor.scale_downs)
    show(
        f"load step:   {', '.join(f'{rps:,.0f}' for rps in step_rps)} req/s\n"
        f"shard count: peak {peak_shards} (max 4), settled 1\n"
        f"scale events: {supervisor.scale_ups} up, "
        f"{supervisor.scale_downs} down, 0 restarts\n"
        f"trace: {len(trace)} samples over "
        f"{trace[-1]['t_s'] if trace else 0:.1f}s"
    )
