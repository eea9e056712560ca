"""Shard runtime for the multi-process prediction cluster.

One *shard* is a child process running the complete single-process
service — its own :class:`~repro.serve.app.RATApp`, micro-batcher and
compiled :class:`~repro.core.plan.PredictionPlan` — sharing the
cluster's TCP port with ``SO_REUSEPORT``: every shard binds its own
listening socket, the kernel load-balances new connections across live
listeners, and a dead shard's listener silently drops out of the group.
The supervisor holds a bound (non-listening) placeholder socket so
``--port 0`` resolves to one concrete port before shards bind.

The supervisor <-> shard contract rides two inherited pipes:

* **heartbeat** (shard -> supervisor): one JSON line per beat —
  ``{"shard": 3, "state": "ready", "requests": 17, ...}`` — at
  ``heartbeat_interval_s``.  Silence past the supervisor's liveness
  deadline marks the shard hung.
* **control** (supervisor -> shard): ``{"op": "drain"}`` begins the
  same graceful drain SIGTERM/SIGINT do; ``{"op": "cluster", ...}``
  pushes the cluster readiness view consumed by ``/healthz/ready``.
  EOF on this pipe means the supervisor died — the shard drains itself
  rather than serve as an orphan.

Shards are launched as ``python -c`` calling :func:`main` with the
config JSON as the one argument (``-m repro.serve.cluster`` would run
this module a second time, since the package imports it), with the
pipe fds kept open via ``pass_fds`` — a fresh interpreter per shard,
no fork-with-threads hazards, and a real ``SIGKILL``-able process for
the chaos harness.

``chaos`` directives (``exit-on-start``, ``exit-after:<s>``,
``no-heartbeat``) let the fault-injection suite make a *real* shard
crash, crash-loop, or hang; they are inert unless explicitly set by the
supervisor's test-only ``chaos`` map.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import socket
import sys
from dataclasses import asdict, dataclass, field

from ..obs import get_metrics
from ..obs.log import event, get_logger
from ..obs.promexport import snapshot_metrics
from .app import RATApp
from .server import RATServer

__all__ = [
    "ShardConfig",
    "create_listen_socket",
    "run_shard",
    "main",
]


def create_listen_socket(
    host: str,
    port: int,
    *,
    reuse_port: bool,
    listen: bool = True,
    backlog: int = 128,
) -> socket.socket:
    """A bound (and by default listening) TCP socket for the service."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        if listen:
            sock.listen(backlog)
        sock.setblocking(False)
    except BaseException:
        sock.close()
        raise
    return sock


@dataclass
class ShardConfig:
    """Everything a shard child needs, JSON-serialisable for argv.

    The fd fields are descriptor *numbers* valid in the child because
    the supervisor lists them in ``Popen(pass_fds=...)`` (which
    preserves numbering).  ``app`` holds the
    :class:`~repro.serve.app.RATApp` options, passed through as given.
    """

    shard_id: int
    host: str
    port: int
    heartbeat_fd: int
    control_fd: int
    heartbeat_interval_s: float = 0.25
    cluster_ready: bool = True
    chaos: str = ""
    access_log: str | None = None
    drain_timeout_s: float = 10.0
    app: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ShardConfig":
        return cls(**json.loads(text))


async def run_shard(config: ShardConfig) -> None:
    """Run one shard until drained (the child-process main coroutine)."""
    log = get_logger("serve.shard")
    app = RATApp(**config.app, shard_id=config.shard_id)
    app.cluster_state = {"ready": bool(config.cluster_ready)}
    server = RATServer(
        app,
        host=config.host,
        port=config.port,
        drain_timeout_s=config.drain_timeout_s,
        sock=create_listen_socket(config.host, config.port, reuse_port=True),
    )
    await server.start()

    def begin_drain() -> None:
        # Flip readiness *before* the listener goes: the heartbeat and
        # any probe that still reaches this shard report draining while
        # in-flight work finishes.
        app.draining = True
        server.drain()

    loop = asyncio.get_running_loop()
    for signame in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signame, begin_drain)
    if config.chaos.startswith("exit-after:"):
        # An abrupt mid-flight crash (no drain, no cleanup): a hard exit
        # once serving, the way a segfault or OOM kill lands.
        loop.call_later(float(config.chaos.partition(":")[2]), os._exit, 13)

    heartbeat = os.fdopen(config.heartbeat_fd, "w", buffering=1)

    def write_beat(state: str) -> None:
        heartbeat.write(json.dumps({
            "shard": config.shard_id,
            "state": state,
            "requests": app.requests,
            "inflight": app.inflight,
            "queue_depth": app.batcher.depth,
            "predictions": app.batcher.served,
            "batches": app.batcher.batches,
            "batch_seconds_ewma": app.batcher.batch_seconds_ewma,
            # Full registry snapshot for the supervisor's aggregated
            # /metrics (counters + histograms summed cluster-wide,
            # gauges kept per shard).
            "metrics": snapshot_metrics(get_metrics()),
        }, separators=(",", ":")) + "\n")

    def beat() -> None:
        if config.chaos == "no-heartbeat":
            return  # chaos: a live process that looks hung
        try:
            write_beat("draining" if app.draining else "ready")
        except OSError:
            begin_drain()  # supervisor is gone; stop serving

    async def heartbeat_loop() -> None:
        while True:
            beat()
            await asyncio.sleep(config.heartbeat_interval_s)

    control_buffer = bytearray()

    def on_control_readable() -> None:
        try:
            data = os.read(config.control_fd, 65536)
        except OSError:
            data = b""
        if not data:
            # Supervisor exited (or closed our pipe): orphan cleanup.
            loop.remove_reader(config.control_fd)
            begin_drain()
            return
        control_buffer.extend(data)
        if b"\n" not in data:
            return
        # One split per read (not per line): linear in the buffered
        # bytes even when a burst of control messages lands at once.
        *lines, tail = control_buffer.split(b"\n")
        control_buffer[:] = tail
        for line in lines:
            try:
                message = json.loads(line)
            except ValueError:
                continue  # torn/garbled control line: skip, stay up
            op = message.get("op")
            if op == "drain":
                begin_drain()
            elif op == "cluster":
                app.cluster_state = {
                    "ready": bool(message.get("ready", True)),
                    "live": message.get("live"),
                    "shards": message.get("shards"),
                }

    os.set_blocking(config.control_fd, False)
    loop.add_reader(config.control_fd, on_control_readable)
    beat()  # first beat marks the shard READY at the supervisor
    event(
        log, "shard.serving",
        shard=config.shard_id, port=server.port, pid=os.getpid(),
    )
    beats = asyncio.ensure_future(heartbeat_loop())
    try:
        await server.run()
    finally:
        beats.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await beats
        with contextlib.suppress(OSError, RuntimeError):
            loop.remove_reader(config.control_fd)
        event(
            log, "shard.drained",
            shard=config.shard_id, requests=app.requests,
            predictions=app.batcher.served,
        )
        with contextlib.suppress(OSError, ValueError):
            # Final state, so the supervisor folds this incarnation's
            # exact totals into the cluster aggregate before it goes.
            write_beat("stopped")
            heartbeat.close()


def main(argv: list[str] | None = None) -> int:
    """Child-process entry point: ``main([config_json])``."""
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 1:
        print(
            "usage: python -m repro.serve.cluster '<shard config json>'",
            file=sys.stderr,
        )
        return 2
    config = ShardConfig.from_json(args[0])
    if config.chaos == "exit-on-start":
        return 13  # chaos: crash-loop fodder for the circuit breaker
    if config.access_log:
        from ..obs.log import configure_logging

        configure_logging(config.access_log)
    asyncio.run(run_shard(config))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised as subprocess
    sys.exit(main())
