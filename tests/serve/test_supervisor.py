"""Supervisor loop tests against stub shard processes.

The stub child speaks the full heartbeat/control protocol (and honours
the chaos directives) without importing numpy or binding a socket, so
these tests exercise crash recovery, the circuit breaker, hang
detection, rolling restart, and the readiness floor in well under a
second per spawn — the real-shard integration lives in
``test_cluster.py`` and the ``faults``-marked chaos harness.
"""

import contextlib
import json
import os
import signal
import socket
import sys
import threading
import time

import pytest

from repro.errors import ParameterError
from repro.serve.cluster import ShardConfig
from repro.serve.supervisor import RestartPolicy, Supervisor

# A minimal shard: heartbeats on the inherited fd, drains on command or
# control-pipe EOF, honours the chaos directives the supervisor injects.
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
exit_at = None
if cfg["chaos"].startswith("exit-after:"):
    exit_at = time.monotonic() + float(cfg["chaos"].partition(":")[2])
while True:
    if cfg["chaos"] != "no-heartbeat":
        beat = {
            "shard": cfg["shard_id"], "state": state, "requests": 7,
            "predictions": 7, "batches": 3,
        }
        if cfg["chaos"] == "bogus-keys":
            beat["evil_injected"] = "boo"
            beat["registry_bomb"] = 1e9
        try:
            hb.write(json.dumps(beat) + "\n")
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
            msg = json.loads(line)
            if msg.get("op") == "drain":
                state = "draining"
                hb.write(json.dumps({
                    "shard": cfg["shard_id"], "state": state, "requests": 7,
                }) + "\n")
                sys.exit(0)
"""

FAST = dict(
    heartbeat_interval_s=0.05,
    liveness_timeout_s=0.6,
    boot_timeout_s=10.0,
    drain_timeout_s=2.0,
    shard_command=[sys.executable, "-c", STUB],
    quiet=True,
)

FAST_POLICY = RestartPolicy(
    backoff_initial_s=0.05, backoff_max_s=0.2, budget=3, window_s=10.0
)


@contextlib.contextmanager
def running(**kwargs):
    """A Supervisor with its loop on a daemon thread, cleaned up after."""
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


class TestRestartPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RestartPolicy(
            backoff_initial_s=0.1, backoff_max_s=1.0, backoff_factor=2.0
        )
        assert policy.next_backoff(0.0) == pytest.approx(0.1)
        assert policy.next_backoff(0.1) == pytest.approx(0.2)
        assert policy.next_backoff(0.8) == pytest.approx(1.0)
        assert policy.next_backoff(5.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            RestartPolicy(backoff_initial_s=0.0)
        with pytest.raises(ParameterError):
            RestartPolicy(budget=0)
        with pytest.raises(ParameterError):
            RestartPolicy(window_s=-1.0)
        with pytest.raises(ParameterError):
            RestartPolicy(backoff_factor=0.5)

    def test_supervisor_rejects_bad_shape(self):
        with pytest.raises(ParameterError):
            Supervisor(shards=0)
        with pytest.raises(ParameterError):
            Supervisor(shards=2, min_shards=3)
        with pytest.raises(ParameterError):
            Supervisor(shards=2, min_shards=0)


class TestLifecycle:
    def test_boot_ready_then_graceful_stop(self):
        with running(shards=3, min_shards=2, port=0) as supervisor:
            assert supervisor.wait_ready(3, timeout_s=10.0)
            status = supervisor.status()
            assert status["ready_shards"] == 3
            assert status["cluster_ready"] is True
            assert status["restarts"] == 0
            assert len(status["shards"]) == 3
            pids = supervisor.shard_pids()
            assert len(pids) == 3
        status = supervisor.status()
        assert status["finished"] is True
        # Stub shards drain on command and exit 0; none left running.
        for pid in pids.values():
            with pytest.raises(OSError):
                os.kill(pid, 0)

    def test_heartbeat_stats_aggregated(self):
        with running(shards=2, min_shards=1, port=0) as supervisor:
            assert supervisor.wait_ready(2, timeout_s=10.0)
            wait_for(
                lambda: supervisor.status()["requests"] == 14,
                message="aggregated request total from both stubs",
            )


class TestCrashRecovery:
    def test_crash_is_restarted_with_backoff(self):
        with running(
            shards=2,
            min_shards=1,
            port=0,
            chaos={0: ["exit-on-start"]},
        ) as supervisor:
            wait_for(
                lambda: supervisor.status()["restarts"] >= 1,
                message="crash restart",
            )
            assert supervisor.wait_ready(2, timeout_s=10.0)
            status = supervisor.status()
            assert status["benched"] == []
            assert {s["id"] for s in status["shards"]} == {0, 1}

    def test_crash_loop_trips_circuit_breaker(self):
        with running(
            shards=3,
            min_shards=1,
            port=0,
            chaos={0: ["exit-on-start"] * 10},
        ) as supervisor:
            wait_for(
                lambda: supervisor.status()["benched"] == [0],
                message="circuit breaker benching shard 0",
            )
            # The cluster degrades but keeps serving on the survivors.
            assert supervisor.wait_ready(2, timeout_s=10.0)
            status = supervisor.status()
            assert status["cluster_ready"] is True
            assert {s["id"] for s in status["shards"]} == {1, 2}
            # The breaker respected the budget: restarts stop at it.
            assert status["restarts"] == FAST_POLICY.budget

    def test_unexpected_sigkill_is_a_crash(self):
        with running(shards=2, min_shards=2, port=0) as supervisor:
            assert supervisor.wait_ready(2, timeout_s=10.0)
            victim = supervisor.shard_pids()[0]
            os.kill(victim, signal.SIGKILL)
            # Readiness floor: the cluster degrades below min_shards...
            wait_for(
                lambda: supervisor.status()["cluster_ready"] is False,
                message="readiness dip after SIGKILL",
            )
            # ...and recovers once the replacement incarnation is up.
            wait_for(
                lambda: supervisor.status()["cluster_ready"] is True,
                message="readiness recovery",
            )
            assert supervisor.status()["restarts"] >= 1


class TestHangDetection:
    def test_silent_shard_killed_and_restarted(self):
        with running(
            shards=2,
            min_shards=1,
            port=0,
            chaos={0: ["no-heartbeat"]},
        ) as supervisor:
            wait_for(
                lambda: supervisor.status()["restarts"] >= 1,
                timeout_s=15.0,
                message="hang detection restart",
            )
            assert supervisor.wait_ready(2, timeout_s=10.0)


class TestStatusSnapshot:
    def test_status_is_a_deep_copy(self):
        """Mutating a status() snapshot must not corrupt supervisor
        state — the docstring promises "safe from any thread"."""
        with running(shards=1, min_shards=1, port=0) as supervisor:
            assert supervisor.wait_ready(1, timeout_s=10.0)
            wait_for(
                lambda: supervisor.status()["requests"] == 7,
                message="stub heartbeat stats",
            )
            snapshot = supervisor.status()
            snapshot["shards"][0]["stats"]["requests"] = 10**9
            snapshot["shards"][0]["state"] = "vandalised"
            snapshot["benched"].append(999)
            fresh = supervisor.status()
            assert fresh["shards"][0]["stats"]["requests"] == 7
            assert fresh["shards"][0]["state"] == "ready"
            assert fresh["benched"] == []
            # And two snapshots never share nested mutable objects.
            assert (
                snapshot["shards"][0] is not fresh["shards"][0]
            )


class TestHeartbeatHygiene:
    def test_unknown_beat_keys_dropped(self):
        """Shard-supplied beat keys outside the contract are dropped
        (and must not mint metrics-registry instruments)."""
        from repro.obs import get_metrics

        with running(
            shards=1, min_shards=1, port=0,
            chaos={0: ["bogus-keys"]},
        ) as supervisor:
            assert supervisor.wait_ready(1, timeout_s=10.0)
            wait_for(
                lambda: supervisor.status()["shards"][0]["stats"].get(
                    "requests"
                ) == 7,
                message="filtered heartbeat stats",
            )
            stats = supervisor.status()["shards"][0]["stats"]
            assert "evil_injected" not in stats
            assert "registry_bomb" not in stats
            assert not any(
                "evil" in name or "registry_bomb" in name
                for name in get_metrics().names()
            )

    def test_heartbeat_burst_parsed_with_one_split(self):
        """A burst of queued beats is parsed line-by-line from a single
        buffer split, keeping only the trailing partial line."""
        import json as json_mod

        supervisor = Supervisor(
            shards=1, port=0, shard_command=["unused"], quiet=True
        )
        try:
            shard = supervisor.active.copy()  # none spawned yet
            assert shard == []
            from repro.serve.supervisor import Shard

            shard = Shard(shard_id=0)
            read_fd, write_fd = os.pipe()
            os.set_blocking(read_fd, False)
            shard.heartbeat_fd = read_fd
            try:
                burst = b"".join(
                    json_mod.dumps({
                        "shard": 0, "state": "ready", "requests": i,
                    }).encode() + b"\n"
                    for i in range(500)
                )
                os.write(write_fd, burst + b'{"shard": 0, "req')
                supervisor._read_heartbeats(shard)
                # Last complete line won; the torn tail is buffered.
                assert shard.stats["requests"] == 499
                assert shard.state == "ready"
                assert bytes(shard.buffer) == b'{"shard": 0, "req'
                # Completing the torn line parses it on the next read.
                os.write(write_fd, b'uests": 1000, "state": "ready"}\n')
                supervisor._read_heartbeats(shard)
                assert shard.stats["requests"] == 1000
                assert shard.buffer == b""
            finally:
                os.close(read_fd)
                os.close(write_fd)
        finally:
            for fd in (supervisor._wake_r, supervisor._wake_w):
                with contextlib.suppress(OSError):
                    os.close(fd)
            supervisor._selector.close()


class TestAutoscaleValidation:
    def test_bad_autoscale_shapes_rejected(self):
        with pytest.raises(ParameterError):
            Supervisor(shards=4, max_shards=2)
        with pytest.raises(ParameterError):
            Supervisor(shards=1, scale_up_depth=1.0, scale_down_depth=2.0)
        with pytest.raises(ParameterError):
            Supervisor(shards=1, scale_cooldown_s=-1.0)
        with pytest.raises(ParameterError):
            Supervisor(shards=1, scale_smoothing_s=0.0)


class TestRollingRestart:
    def test_every_shard_recycled_without_dipping(self):
        with running(shards=2, min_shards=2, port=0) as supervisor:
            assert supervisor.wait_ready(2, timeout_s=10.0)
            before = supervisor.shard_pids()
            dipped = []
            supervisor.rolling_restart()

            def recycled():
                status = supervisor.status()
                if status["ready_shards"] < 2:
                    dipped.append(status["ready_shards"])
                current = {
                    s["id"]: s["pid"] for s in status["shards"]
                }
                return (
                    not status["rolling"]
                    and len(current) == 2
                    and not (set(current) & set(before))
                )

            wait_for(recycled, timeout_s=20.0, message="rolling restart")
            # Surge semantics: ready capacity never dropped below the
            # original shard count while recycling.
            assert dipped == []
            status = supervisor.status()
            assert status["cluster_ready"] is True
            # Replacements are new identities (fresh shard ids).
            assert all(i >= 2 for i in supervisor.shard_pids())


# The stub shard above, after writing the config JSON it was started
# with to the file its first argument names.
DUMP_STUB = (
    "import os, sys\n"
    "path = sys.argv.pop(1)\n"
    "with open(path + '.tmp', 'w') as fh:\n"
    "    fh.write(sys.argv[1])\n"
    "os.replace(path + '.tmp', path)\n"
) + STUB


def dump_command(path):
    return [sys.executable, "-c", DUMP_STUB, str(path)]


class TestShardConfig:
    def test_app_options_reach_the_shards(self, tmp_path):
        # The options benchmarks/bench_serve.py gives its clusters.
        path = tmp_path / "config.json"
        with running(
            shards=1, port=0, shard_command=dump_command(path),
            max_batch_size=256,
        ) as supervisor:
            assert supervisor.wait_ready(1, timeout_s=10.0)
        config = json.loads(path.read_text())
        assert config["app"] == {"max_batch_size": 256}
        assert sorted(config) == sorted(
            ShardConfig.__dataclass_fields__
        )

    def test_cli_serve_options_reach_the_shards(self, tmp_path, monkeypatch):
        from repro.cli import main
        from repro.serve import supervisor as supervisor_module

        path = tmp_path / "config.json"
        made = []

        class StubShards(Supervisor):
            def __init__(self, **options):
                super().__init__(**{
                    **options, **FAST, "shard_command": dump_command(path),
                })
                made.append(self)

        monkeypatch.setattr(supervisor_module, "Supervisor", StubShards)
        serve = threading.Thread(target=main, daemon=True, args=([
            "serve", "--port", "0", "--shards", "1", "--max-batch", "17",
            "--max-pending", "33", "--deadline-ms", "250",
        ],))
        serve.start()
        try:
            wait_for(path.exists, message="the shard's config")
        finally:
            wait_for(lambda: made, message="the supervisor")
            made[0].stop()
            serve.join(timeout=15.0)
        assert not serve.is_alive()
        assert json.loads(path.read_text())["app"] == {
            "max_batch_size": 17,
            "max_pending": 33,
            "default_deadline_s": 0.25,
        }

    def test_unknown_app_option_rejected(self):
        with pytest.raises(TypeError, match="max_batch"):
            Supervisor(shards=1, max_batch=8)

    def test_cluster_needs_so_reuseport(self, monkeypatch):
        monkeypatch.delattr(socket, "SO_REUSEPORT")
        with pytest.raises(ParameterError, match="SO_REUSEPORT"):
            Supervisor(shards=1)

    def test_old_layout_config_rejected(self):
        # A shard refuses a config from a supervisor that still passed
        # the RATApp options as fields of their own.
        old = {
            "shard_id": 0, "host": "127.0.0.1", "port": 8321,
            "heartbeat_fd": 5, "control_fd": 6, "max_batch_size": 64,
        }
        with pytest.raises(TypeError):
            ShardConfig.from_json(json.dumps(old))
