"""serve_http: closed-loop load on the prediction service.

``rat serve`` starts through the CLI in its own process and is driven
over two keep-alive connections from one thread.  Every response is
checked against the scalar reference as it arrives; the check is a
byte comparison in the common case, outside the request's timed span.
"""

from __future__ import annotations

import json
import os
import re
import select
import selectors
import signal
import socket
import subprocess
import sys
import time

import inputs
from common import BENCH, ROOT, child_env, median, out_path, peak_rss_mb_pid
from phase import Phase, layer_metrics
from spans import INFO, KERNELS, Trace
from spans import ROOT as ROOT_SPAN

HTTP_CONNECTIONS = 2
#: serve_http request blocks generated per run (8 requests each), cycled.
HTTP_BLOCKS = 256
WARMUP_S = 1.0
#: Longest a server may take to print its banner, answer, or drain.
TIMEOUT_S = 60.0

_CONTENT_LENGTH = re.compile(rb"\r\ncontent-length:\s*(\d+)", re.IGNORECASE)


def _route(call: inputs.Call) -> str:
    return "batch" if call.path == "/v1/batch" else "predict"


def _tally(phase: Phase, call: inputs.Call, status: int, start: float,
           end: float, ok: bool, k: int) -> None:
    phase.record(start, end, call.points, ok, _route(call), k)
    phase.statuses[status] += 1
    phase.expected_400 += call.status == 400
    if not ok:
        phase.problem(f"op {k}: {call.path} answered {status} "
                      f"with a body that differs from the scalar reference")


# ---- serve_http: the server process ----------------------------------------


class Server:
    """One ``rat serve --port 0`` child, from spawn to clean drain."""

    def __init__(self, argv: list[str], tag: str) -> None:
        self.stderr_path = out_path(f"server-{tag}.err")
        self.spawned = time.perf_counter()
        with open(self.stderr_path, "wb") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=child_env(),
                stdout=subprocess.PIPE, stderr=stderr,
            )
        self.output = b""
        self.launch: dict = {}
        try:
            banner = self._read_until(b"listening on http://")
        except BaseException:
            self.kill()
            raise
        for line in self.output.splitlines():
            if line.startswith(b"ratbench-launch "):
                self.launch = json.loads(line.split(b" ", 1)[1])
        self.port = int(re.search(rb":(\d+) ", banner).group(1))

    def _read_until(self, marker: bytes) -> bytes:
        """Read stdout until a whole line holding ``marker``; that line."""
        deadline = time.perf_counter() + TIMEOUT_S
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.output.partition(marker)[2]:
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([fd], [], [], max(remaining, 0))
            if not ready:
                raise TimeoutError(f"server printed no {marker!r}")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(
                    f"server exited before {marker!r}: "
                    f"{self.stderr_path.read_text()[-500:]}"
                )
            self.output += chunk
        start = self.output.index(marker)
        return self.output[start:self.output.index(b"\n", start)]

    def stop(self) -> list[str]:
        """SIGTERM, wait for exit; the problems with how it drained."""
        problems = []
        self.proc.send_signal(signal.SIGTERM)
        try:
            self._read_until(b"drained cleanly")
        except (TimeoutError, RuntimeError) as exc:
            problems.append(f"no clean drain banner: {exc}")
        try:
            code = self.proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            code = None
        self.proc.stdout.close()
        if code != 0:
            problems.append(f"server exited with {code}")
        errors = self.stderr_path.read_text(errors="replace")
        if "Traceback" in errors:
            problems.append("server stderr holds a traceback: "
                            + errors.strip().splitlines()[-1][:200])
        return problems

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout and not self.proc.stdout.closed:
            self.proc.stdout.close()


def plain_server(tag: str) -> Server:
    return Server(["-m", "repro", "serve", "--port", "0"], tag)


def telemetry_server(tag: str) -> Server:
    return Server([
        "-m", "repro",
        "--trace", str(out_path(f"{tag}-trace.json")),
        "--log-json", str(out_path(f"{tag}-log.jsonl")),
        "serve", "--port", "0",
        "--access-log", str(out_path(f"{tag}-access.jsonl")),
    ], tag)


def launched_server(tag: str, spans_path: str | None) -> Server:
    argv = [str(BENCH / "launch.py")]
    if spans_path:
        argv += ["--spans", spans_path]
    return Server(argv + ["serve", "--port", "0"], tag)


# ---- serve_http: the client ------------------------------------------------


class _Conn:
    __slots__ = ("sock", "buf", "k", "start")

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.k = -1
        self.start = 0.0


class Client:
    """Closed-loop keep-alive HTTP/1.1 load from one thread."""

    def __init__(self, port: int, connections: int) -> None:
        self.conns = [_Conn(port) for _ in range(connections)]
        self.next = 0

    def close(self) -> None:
        for conn in self.conns:
            conn.sock.close()

    def _send(self, conn: _Conn, calls, tag_ops: bool) -> None:
        conn.k = self.next
        self.next += 1
        call = calls[conn.k % len(calls)]
        extra = b"X-Ratbench-Op: %d\r\n" % conn.k if tag_ops else b""
        head = (
            b"POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n"
            b"%s\r\n" % (call.path.encode(), len(call.body), extra)
        )
        conn.start = time.perf_counter()
        conn.sock.sendall(head + call.body)

    @staticmethod
    def _response(conn: _Conn) -> tuple[int, bytes] | None:
        end = conn.buf.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = bytes(conn.buf[:end])
        length = _CONTENT_LENGTH.search(head)
        total = end + 4 + (int(length.group(1)) if length else 0)
        if len(conn.buf) < total:
            return None
        body = bytes(conn.buf[end + 4:total])
        del conn.buf[:total]
        return int(head[9:12]), body

    def run(self, calls, seconds: float, phase: Phase | None,
            tag_ops: bool = False) -> None:
        """Keep every connection busy for ``seconds``; tally ``phase``."""
        active = self.conns
        selector = selectors.DefaultSelector()
        deadline = time.perf_counter() + seconds
        if phase is not None:
            phase.t0 = time.perf_counter()
        for conn in active:
            selector.register(conn.sock, selectors.EVENT_READ, conn)
            self._send(conn, calls, tag_ops)
        busy = len(active)
        try:
            while busy:
                events = selector.select(TIMEOUT_S)
                if not events:
                    raise TimeoutError("no response within the time-out")
                for key, _ in events:
                    conn = key.data
                    chunk = conn.sock.recv(1 << 18)
                    if not chunk:
                        raise ConnectionError("server closed a connection")
                    conn.buf += chunk
                    parsed = self._response(conn)
                    if parsed is None:
                        continue
                    end = time.perf_counter()
                    status, body = parsed
                    if phase is not None:
                        call = calls[conn.k % len(calls)]
                        ok = inputs.check_response(call, status, body)
                        _tally(phase, call, status, conn.start, end, ok,
                               conn.k)
                    if end < deadline:
                        self._send(conn, calls, tag_ops)
                    else:
                        selector.unregister(conn.sock)
                        busy -= 1
        finally:
            selector.close()
        if phase is not None:
            phase.t1 = deadline


def http_calls(seed: int) -> list[inputs.Call]:
    return inputs.http_mix(seed, inputs.worksheets(seed), HTTP_BLOCKS)


def first_response(server: Server, call: inputs.Call) -> tuple[bool, float]:
    """One request on a fresh connection; (correct, response time)."""
    client = Client(server.port, 1)
    phase = Phase(serial=False)
    try:
        client.run([call], 0.0, phase)
    finally:
        client.close()
    return phase.failed == 0, phase.ops[0][1]


def http_setup(calls, starts: int, launcher: bool = False):
    """Start the server ``starts`` times; keep the last one running.

    Returns (per-start records, problems, running server).  A record
    holds spawn-to-first-correct-response seconds, and for launcher
    starts the import time and import-done-to-first-response seconds.
    """
    records, problems = [], []
    server = None
    for n in range(starts):
        server = (launched_server(f"setup{n}", None) if launcher
                  else plain_server(f"setup{n}"))
        try:
            ok, done = first_response(server, calls[0])
        except BaseException:
            server.kill()
            raise
        record = {"setup_s": done - server.spawned, "ok": ok}
        if server.launch:
            record["import_s"] = server.launch["import_s"]
            record["first_op_s"] = done - server.launch["import_done"]
        records.append(record)
        if n < starts - 1:
            problems += server.stop()
    return records, problems, server


def http_phase(server: Server, calls, seconds: float,
               tag_ops: bool = False) -> tuple[Phase, list[str]]:
    """Warm up, time ``seconds`` of load, close, drain.

    Returns the phase and the problems with how the server drained.
    """
    client = Client(server.port, HTTP_CONNECTIONS)
    phase = Phase(serial=False)
    try:
        client.run(calls, WARMUP_S, None)
        client.run(calls, seconds, phase, tag_ops=tag_ops)
    except BaseException:
        client.close()
        server.kill()
        raise
    # Idle keep-alive connections are closed before SIGTERM: draining
    # with one still open makes the server log a CancelledError.
    client.close()
    phase.rss_mb = peak_rss_mb_pid(server.proc.pid)
    return phase, server.stop()


def status_problems(phase: Phase) -> list[str]:
    """The 400s must be exactly the generated invalid worksheets, and no
    other status (429, 5xx, ...) may appear."""
    problems = []
    if phase.statuses.get(400, 0) != phase.expected_400:
        problems.append(
            f"{phase.statuses.get(400, 0)} answers of 400, expected "
            f"{phase.expected_400}"
        )
    other = {s: n for s, n in phase.statuses.items() if s not in (200, 400)}
    if other:
        problems.append(f"unexpected statuses {other}")
    return problems


# ---- traced runs -----------------------------------------------------------


def serve_layers(trace: Trace) -> dict[str, float]:
    """The serve-side per-layer metrics from one traced phase."""
    ops = list(trace.roots)

    def per_op(names: tuple[str, ...]) -> list[float]:
        return [trace.per_op(op, names) for op in ops]

    def us(values: list[float]) -> float:
        return median(values) * 1e6 if values else 0.0

    transport = [
        trace.op_time(op) - trace.per_op(op, ("serve.app.handle",))
        for op in ops
    ]
    batches = [len(s[INFO]) for s in trace.named("serve.batcher.batch")]
    op_time = sum(trace.op_time(op) for op in ops)
    metrics = layer_metrics(trace)
    metrics.update({
        # Eq (8) for the service: kernel time inside request trees over
        # request time (a shared batch counts in each member's tree).
        "serve.util_comp": sum(trace.per_op(op, KERNELS) for op in ops)
        / op_time if op_time else 0.0,
        "serve.diagnostic_us": us(
            trace.durations("serve.batcher.scalar_diagnostic")
        ),
        "serve.transport_us": us(transport),
        "serve.parse_us": us(per_op(("serve.protocol.parse_head",
                                     "serve.protocol.body_length"))),
        "serve.decode_us": us(trace.durations("serve.protocol.json")),
        "serve.stage_us": us(trace.durations("serve.batcher.worksheet_row")),
        "serve.queue_wait_us": us(
            trace.durations("serve.batcher.queue_wait")
        ),
        "serve.batch_rows": float(median(batches)) if batches else 0.0,
        "serve.batch_fill": (
            sum(batches) / (len(batches) * inputs.MAX_BATCH)
            if batches else 0.0
        ),
        "serve.encode_us": us(per_op(("serve.protocol.json_response",
                                      "serve.protocol.format_response"))),
        "serve.thread_hop_us": us([
            trace.self_time(i) for i in trace.ids("serve.app.to_thread")
        ]),
    })
    return metrics


def http_traced(seed: int, seconds: float, starts: int) -> dict[str, object]:
    calls = http_calls(seed)
    share = seconds / 3.0
    setups, problems, server = http_setup(calls, starts, launcher=True)
    problems += server.stop()

    phases = []
    for tag, start in (("plain", plain_server), ("telemetry",
                                                 telemetry_server)):
        server = start(tag)
        phase, stop_problems = http_phase(server, calls, share)
        problems += stop_problems
        phases.append(phase)
    for name in ("telemetry-trace.json", "telemetry-log.jsonl",
                 "telemetry-access.jsonl"):
        out_path(name).unlink(missing_ok=True)

    spans_path = str(out_path("spans-serve_http.json"))
    server = launched_server("traced", spans_path)
    spanned, stop_problems = http_phase(server, calls, share, tag_ops=True)
    problems += stop_problems
    with open(spans_path, encoding="utf-8") as handle:
        spans = json.load(handle)["spans"]
    # Client-side op spans root each request's server-side spans; both
    # processes read the same CLOCK_MONOTONIC through perf_counter().
    for k, (start, end, _) in zip(spanned.keys, spanned.ops):
        spans.append([ROOT_SPAN, start, end, -1, k, None])
    spanned.trace = Trace(spans, spanned.t0, float("inf"))
    phases.append(spanned)
    return {"phases": phases, "metrics": serve_layers(spanned.trace),
            "setups": setups, "problems": problems}
