"""Aggregated cluster /metrics and queue-depth autoscaling.

Stub shards (no numpy, no sockets) ship metrics snapshots whose
counters grow with every beat, so a SIGKILL + restart visibly resets
the *shard's* counters — the tests assert the *merged* exposition never
goes backwards anyway.  A ``depth-file:<path>`` chaos directive lets a
test steer the queue depth every stub reports, driving the supervisor's
autoscaler up a load step and back down to idle without real traffic.
"""

import contextlib
import json
import os
import re
import signal
import socket
import sys
import threading
import time

from repro.serve.protocol import MAX_HEAD_BYTES
from repro.serve.supervisor import RestartPolicy, Supervisor

# Cumulative-bucket layout: snapshots carry [count, sum, *39 buckets]
# over promexport.DEFAULT_BUCKETS; every stub observation is 0.01s,
# which lands in bucket index 12 (le="0.01").
STUB = r"""
import json, os, select, sys, time
cfg = json.loads(sys.argv[1])
if cfg["chaos"] == "exit-on-start":
    sys.exit(13)
hb = os.fdopen(cfg["heartbeat_fd"], "w", buffering=1)
ctrl = cfg["control_fd"]
os.set_blocking(ctrl, False)
state = "ready"
buf = b""
depth_file = None
if cfg["chaos"].startswith("depth-file:"):
    depth_file = cfg["chaos"].partition(":")[2]
exit_at = None
if cfg["chaos"].startswith("exit-after:"):
    exit_at = time.monotonic() + float(cfg["chaos"].partition(":")[2])
beats = 0
while True:
    beats += 1
    depth = 0.0
    if depth_file:
        try:
            with open(depth_file) as fh:
                depth = float(fh.read().strip() or 0)
        except (OSError, ValueError):
            depth = 0.0
    snapshot = {
        "c": {"stub.beats": beats, "serve.requests": beats * 2},
        "g": {"serve.queue_depth": depth},
        "h": {"serve.batch_seconds":
              [beats, beats * 0.01] + [0] * 12 + [beats] * 27},
    }
    try:
        hb.write(json.dumps({
            "shard": cfg["shard_id"], "state": state,
            "requests": beats, "inflight": 0, "queue_depth": depth,
            "predictions": beats, "batches": beats,
            "batch_seconds_ewma": 0.01, "metrics": snapshot,
        }) + "\n")
    except OSError:
        sys.exit(0)
    if exit_at is not None and time.monotonic() >= exit_at:
        os._exit(13)
    readable, _, _ = select.select([ctrl], [], [], cfg["heartbeat_interval_s"])
    if readable:
        try:
            data = os.read(ctrl, 65536)
        except OSError:
            data = b""
        if not data:
            sys.exit(0)
        buf += data
        while b"\n" in buf:
            line, _, buf = buf.partition(b"\n")
            if json.loads(line).get("op") == "drain":
                sys.exit(0)
"""

FAST = dict(
    heartbeat_interval_s=0.05,
    liveness_timeout_s=0.6,
    boot_timeout_s=10.0,
    drain_timeout_s=2.0,
    shard_command=[sys.executable, "-c", STUB],
    quiet=True,
    metrics_port=0,
)

FAST_POLICY = RestartPolicy(
    backoff_initial_s=0.05, backoff_max_s=0.2, budget=3, window_s=10.0
)


@contextlib.contextmanager
def running(**kwargs):
    options = {**FAST, "policy": FAST_POLICY, **kwargs}
    supervisor = Supervisor(**options)
    supervisor.start()
    thread = threading.Thread(target=supervisor.run, daemon=True)
    thread.start()
    try:
        yield supervisor
    finally:
        supervisor.stop()
        supervisor.wait_finished(timeout_s=15.0)
        thread.join(timeout=15.0)


def wait_for(predicate, timeout_s=10.0, message="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


def scrape(port, path="/metrics"):
    """(status, body) from the supervisor's metrics listener."""
    return scrape_raw(
        port, f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
    )


def scrape_raw(port, request, half_close=False):
    """(status, body) for raw request bytes; ``half_close`` sends EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as s:
        s.sendall(request)
        if half_close:
            s.shutdown(socket.SHUT_WR)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.lower().split(b"\r\n"):
            if line.startswith(b"content-length:"):
                length = int(line.split(b":")[1])
        while len(body) < length:
            chunk = s.recv(65536)
            if not chunk:
                break
            body += chunk
        return int(head.split()[1]), body.decode()


_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\S+)$", re.M
)


def samples(text):
    """{(name, labels-or-None): float} for every sample line."""
    out = {}
    for name, labels, value in _SAMPLE.findall(text):
        out[(name, labels or None)] = float(value.replace("+Inf", "inf"))
    return out


class TestAggregatedMetrics:
    def test_counters_monotone_across_sigkill_restart(self):
        """The acceptance criterion: summed counters never go backwards
        across a mid-scrape shard kill + restart, and the merged
        histogram keeps its bucket invariants throughout."""
        with running(shards=2, min_shards=1, port=0) as supervisor:
            assert supervisor.wait_ready(2, timeout_s=10.0)
            mport = supervisor.status()["metrics_port"]
            seen = []

            def beats_total():
                _, body = scrape(mport)
                value = samples(body).get(("rat_stub_beats_total", None), 0)
                seen.append(value)
                return value

            wait_for(
                lambda: beats_total() >= 6,
                message="both shards reporting snapshot counters",
            )
            victim = supervisor.shard_pids()[0]
            os.kill(victim, signal.SIGKILL)
            wait_for(
                lambda: supervisor.status()["restarts"] >= 1
                and beats_total() > 0,
                message="restart after SIGKILL",
            )
            assert supervisor.wait_ready(2, timeout_s=10.0)
            before_recovery = seen[-1]
            wait_for(
                lambda: beats_total() >= before_recovery + 4,
                message="replacement incarnation contributing",
            )
            # Every scrape in the whole sequence was monotone, even the
            # ones taken while shard 0's counters had reset to zero.
            assert seen == sorted(seen), seen
            _, body = scrape(mport)
            parsed = samples(body)
            count = parsed[("rat_serve_batch_seconds_count", None)]
            buckets = [
                value for (name, _), value in sorted(parsed.items())
                if name == "rat_serve_batch_seconds_bucket"
            ]
            inf_bucket = parsed[
                ("rat_serve_batch_seconds_bucket", '{le="+Inf"}')
            ]
            assert inf_bucket == count
            assert all(value <= count for value in buckets)
            # Counters from the supervisor's own registry ride along.
            assert ("rat_cluster_restarts_total", None) in parsed

    def test_retired_shard_gauges_disappear(self):
        """A benched shard's gauges drop out of the exposition while
        its counter contributions are retained forever."""
        with running(
            shards=2, min_shards=1, port=0,
            chaos={1: ["exit-after:0.6"] + ["exit-on-start"] * 10},
        ) as supervisor:
            assert supervisor.wait_ready(2, timeout_s=10.0)
            mport = supervisor.status()["metrics_port"]
            # Shard 1 beats for ~0.6s (gauges visible), then crash-loops
            # into the circuit breaker.
            wait_for(
                lambda: samples(scrape(mport)[1]).get(
                    ("rat_serve_queue_depth", '{shard="1"}')
                ) is not None,
                message="shard 1 gauges in the exposition",
            )
            wait_for(
                lambda: supervisor.status()["benched"] == [1],
                timeout_s=15.0,
                message="shard 1 benched",
            )
            _, body = scrape(mport)
            parsed = samples(body)
            assert ("rat_serve_queue_depth", '{shard="0"}') in parsed
            assert ("rat_serve_queue_depth", '{shard="1"}') not in parsed
            # Its pre-crash beats still count in the cluster sum: the
            # healthy shard alone cannot have produced this total
            # before shard 1's first incarnation died.
            assert parsed[("rat_stub_beats_total", None)] > 0

    def test_status_endpoint_and_unknown_path(self):
        with running(shards=1, min_shards=1, port=0) as supervisor:
            assert supervisor.wait_ready(1, timeout_s=10.0)
            mport = supervisor.status()["metrics_port"]
            status, body = scrape(mport, "/status")
            assert status == 200
            payload = json.loads(body)
            assert payload["cluster_ready"] is True
            assert payload["metrics_port"] == mport
            assert len(payload["shards"]) == 1
            status, _ = scrape(mport, "/nope")
            assert status == 404
            status, _ = scrape_raw(
                mport, b"POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            assert status == 405
            status, _ = scrape_raw(mport, b"garbage\r\n\r\n")
            assert status == 400
            # A head still unterminated at EOF is not answered as if
            # it had been read in full ...
            unterminated = b"GET /metrics HTTP/1.1\r\nX-Pad: " + b"a" * 9000
            status, _ = scrape_raw(mport, unterminated, half_close=True)
            assert status == 400
            # ... and past the head limit the answer is 431.
            oversized = unterminated.ljust(MAX_HEAD_BYTES + 1, b"a")
            status, _ = scrape_raw(mport, oversized)
            assert status == 431
            assert scrape(mport, "/status")[0] == 200


class TestAutoscaling:
    def test_scale_up_under_load_then_retire_at_idle(self, tmp_path):
        """Shard count rises under a queue-depth step and falls back to
        the floor at idle, all through the drain path (no restarts, no
        benching)."""
        depth_file = tmp_path / "depth"
        depth_file.write_text("0")
        directive = f"depth-file:{depth_file}"
        with running(
            shards=1, min_shards=1, port=0,
            max_shards=3,
            scale_up_depth=2.0,
            scale_down_depth=0.5,
            scale_cooldown_s=0.2,
            scale_smoothing_s=0.1,
            # Every slot id the autoscaler may ever mint reads the same
            # depth file (chaos queues are consumed one per spawn).
            chaos={i: [directive] * 4 for i in range(10)},
        ) as supervisor:
            assert supervisor.wait_ready(1, timeout_s=10.0)
            depth_file.write_text("10")
            wait_for(
                lambda: supervisor.status()["ready_shards"] == 3,
                timeout_s=20.0,
                message="scale-up to max_shards under load",
            )
            status = supervisor.status()
            assert status["scale_ups"] >= 2
            assert status["restarts"] == 0
            assert len(status["shards"]) == 3
            depth_file.write_text("0")
            wait_for(
                lambda: supervisor.status()["ready_shards"] == 1
                and len(supervisor.status()["shards"]) == 1,
                timeout_s=20.0,
                message="retire back to the min_shards floor at idle",
            )
            status = supervisor.status()
            assert status["scale_downs"] >= 2
            assert status["restarts"] == 0
            assert status["benched"] == []
            # The survivor is the oldest shard: retirement always takes
            # the newest idle one.
            assert status["shards"][0]["id"] == 0
            assert status["cluster_ready"] is True

    def test_no_autoscaling_without_ceiling(self):
        with running(shards=1, min_shards=1, port=0) as supervisor:
            assert supervisor.wait_ready(1, timeout_s=10.0)
            status = supervisor.status()
            assert status["max_shards"] is None
            assert status["scale_ups"] == 0
            time.sleep(0.3)
            assert len(supervisor.status()["shards"]) == 1
