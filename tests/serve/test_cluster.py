"""End-to-end cluster tests with real shard processes.

Unlike ``test_supervisor.py`` (stub children, protocol mechanics),
these boot genuine shards — full ``RATApp`` + micro-batcher + compiled
plan per process — and talk to them over real sockets: port sharing,
cross-shard bitwise parity, the torn-read contract when a shard dies
mid-connection, and the CLI signal behaviour (SIGINT == SIGTERM).
"""

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.serve.supervisor import RestartPolicy, Supervisor

WORKSHEET_PATH = "examples/worksheets/pdf1d.json"

with open(WORKSHEET_PATH, encoding="utf-8") as _handle:
    WORKSHEET = json.load(_handle)


@contextlib.contextmanager
def cluster(**kwargs):
    """A real-shard Supervisor on a daemon thread, drained on exit."""
    options = dict(
        host="127.0.0.1",
        port=0,
        heartbeat_interval_s=0.1,
        liveness_timeout_s=5.0,
        boot_timeout_s=60.0,
        drain_timeout_s=10.0,
        policy=RestartPolicy(backoff_initial_s=0.05, budget=5, window_s=30.0),
        quiet=True,
    )
    options.update(kwargs)
    supervisor = Supervisor(**options)
    supervisor.start()
    thread = threading.Thread(target=supervisor.run, daemon=True)
    thread.start()
    try:
        yield supervisor
    finally:
        supervisor.stop()
        supervisor.wait_finished(timeout_s=30.0)
        thread.join(timeout=30.0)


def connect(port, timeout=10.0):
    conn = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    conn.settimeout(timeout)
    return conn


def request_on(conn, method, path, payload=None):
    """One keep-alive HTTP exchange on an open connection."""
    body = b"" if payload is None else json.dumps(payload).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: test\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()
    conn.sendall(head + body)
    return read_response(conn)


def read_response(conn):
    """(status, body_bytes) read straight off the socket."""
    reader = conn.makefile("rb")
    status_line = reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    return status, reader.read(length)


def http(port, method, path, payload=None):
    with contextlib.closing(connect(port)) as conn:
        return request_on(conn, method, path, payload)


def sample_shards(port, attempts=80):
    """Hit /healthz over fresh connections until both shards answer.

    ``SO_REUSEPORT`` load-balances by connection hash, so distinct
    ephemeral source ports spread across listeners quickly.
    """
    seen = {}
    for _ in range(attempts):
        status, body = http(port, "GET", "/healthz")
        assert status == 200
        blob = json.loads(body)
        seen[blob["shard"]] = blob
        if len(seen) >= 2:
            break
    return seen


class TestClusterServing:
    def test_two_shards_share_port_with_bitwise_parity(self):
        with cluster(shards=2, min_shards=1) as supervisor:
            assert supervisor.wait_ready(2, timeout_s=60.0)
            port = supervisor.status()["port"]

            # Both shards answer on the one port, and each stamps its
            # own identity into /healthz and /metrics.
            bodies = {}
            for _ in range(80):
                with contextlib.closing(connect(port)) as conn:
                    status, health = request_on(conn, "GET", "/healthz")
                    assert status == 200
                    shard = json.loads(health)["shard"]
                    status, predicted = request_on(
                        conn, "POST", "/v1/predict", WORKSHEET
                    )
                    assert status == 200
                    bodies[shard] = predicted
                if len(bodies) == 2:
                    break
            assert set(bodies) == {0, 1}, "kernel never balanced to both"

            # Same worksheet, different process: byte-identical answer.
            assert bodies[0] == bodies[1]
            blob = json.loads(bodies[0])
            assert blob["predictions"]["single"]["speedup"] > 0

            status, metrics = http(port, "GET", "/metrics")
            assert status == 200
            assert b'shard="' in metrics

    def test_ready_endpoint_tracks_cluster_floor(self):
        with cluster(shards=2, min_shards=2) as supervisor:
            assert supervisor.wait_ready(2, timeout_s=60.0)
            port = supervisor.status()["port"]
            status, body = http(port, "GET", "/healthz/ready")
            assert status == 200
            assert json.loads(body)["ready"] is True
            status, _ = http(port, "GET", "/healthz/live")
            assert status == 200

            victim = supervisor.shard_pids()[0]
            os.kill(victim, signal.SIGKILL)
            # The floor break is broadcast to the survivor, which must
            # answer 503 on readiness while staying alive.
            deadline = time.monotonic() + 10.0
            saw_not_ready = None
            while time.monotonic() < deadline:
                try:
                    status, body = http(port, "GET", "/healthz/ready")
                except (ConnectionError, OSError):
                    continue  # landed on the corpse's lingering socket
                if status == 503:
                    saw_not_ready = json.loads(body)
                    break
                time.sleep(0.05)
            assert saw_not_ready is not None, "readiness never dipped"
            assert "floor" in saw_not_ready["reason"]

            # ...and recovery: the supervisor respawns, readiness returns.
            deadline = time.monotonic() + 30.0
            recovered = False
            while time.monotonic() < deadline:
                with contextlib.suppress(ConnectionError, OSError):
                    status, _ = http(port, "GET", "/healthz/ready")
                    if status == 200:
                        recovered = True
                        break
                time.sleep(0.1)
            assert recovered, "readiness never recovered after restart"


class TestTornReads:
    def test_shard_death_midrequest_closes_cleanly(self):
        """An in-flight connection to a killed shard must not hang.

        The client has written half a request when its shard dies: the
        right outcome is a prompt connection error (EOF/reset), after
        which a fresh connection lands on a live shard and succeeds.
        """
        with cluster(shards=2, min_shards=1) as supervisor:
            assert supervisor.wait_ready(2, timeout_s=60.0)
            port = supervisor.status()["port"]

            conn = connect(port, timeout=20.0)
            try:
                # Learn which shard owns this keep-alive connection.
                status, body = request_on(conn, "GET", "/healthz")
                assert status == 200
                owner = json.loads(body)["shard"]

                # Start — but do not finish — the next request.
                conn.sendall(b"POST /v1/predict HTTP/1.1\r\nHost: test\r\n")
                os.kill(supervisor.shard_pids()[owner], signal.SIGKILL)

                # The torn read must surface as a clean close, not a
                # stall: readline() returns EOF or the socket resets
                # well inside the timeout.
                with pytest.raises((ConnectionError, OSError)):
                    if read_response(conn) is not None:
                        raise AssertionError(
                            "dead shard answered a half-sent request"
                        )
            finally:
                conn.close()

            # Keep-alive clients reconnect and land on a live shard.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                with contextlib.suppress(ConnectionError, OSError):
                    status, body = http(port, "POST", "/v1/predict", WORKSHEET)
                    if status == 200:
                        break
                time.sleep(0.1)
            else:
                raise AssertionError("no live shard answered after kill")
            assert json.loads(body)["predictions"]["single"]["speedup"] > 0


def _boot_cli(extra_args):
    """`rat serve` as a subprocess on an ephemeral port; returns (proc, port)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": "src", "PYTHONUNBUFFERED": "1"},
    )
    banner = ""
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                f"serve exited rc={proc.poll()} before listening"
            )
        banner += line
        if "listening on http://" in line:
            port = int(line.split("listening on http://", 1)[1]
                       .split()[0].rsplit(":", 1)[1])
            return proc, port
    raise AssertionError(f"no listening banner within deadline: {banner!r}")


def _wait_drained(proc, timeout=30.0):
    # Wait first: reading to EOF has no timeout, so a server that never
    # drains would wedge the test instead of failing it.  The drain output
    # is a few lines, far below a pipe's buffer.
    proc.wait(timeout=timeout)
    return proc.stdout.read()


class TestServeSignals:
    """SIGINT must behave exactly like SIGTERM: drain, then exit 0."""

    @pytest.mark.parametrize("signame", [signal.SIGINT, signal.SIGTERM])
    def test_single_process_signals_drain_exit_zero(self, signame):
        proc, port = _boot_cli([])
        idle = connect(port)
        try:
            status, _ = http(port, "GET", "/healthz")
            assert status == 200
            # A keep-alive connection left idle across the signal must be
            # closed by the drain, not cancelled at exit.
            status, _ = request_on(idle, "GET", "/healthz/live")
            assert status == 200
            proc.send_signal(signame)
            out = _wait_drained(proc)
            assert proc.returncode == 0, out
            assert "drained cleanly" in out
            assert "Traceback" not in out, out
            assert "Exception in callback" not in out, out
            assert idle.recv(1) == b""  # the server closed it
        finally:
            idle.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    @pytest.mark.parametrize("signame", [signal.SIGINT, signal.SIGTERM])
    def test_cluster_signals_drain_exit_zero(self, signame):
        proc, port = _boot_cli(["--shards", "2", "--min-shards", "1"])
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                with contextlib.suppress(ConnectionError, OSError):
                    status, _ = http(port, "POST", "/v1/predict", WORKSHEET)
                    if status == 200:
                        break
                time.sleep(0.2)
            else:
                raise AssertionError("cluster never answered a predict")
            proc.send_signal(signame)
            out = _wait_drained(proc)
            assert proc.returncode == 0, out
            assert "cluster drained cleanly" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
