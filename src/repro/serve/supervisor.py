"""Self-healing shard supervisor for the prediction cluster.

``rat serve --shards N`` runs this parent process: it owns the port,
forks N :mod:`repro.serve.cluster` shard children, and enforces the
cluster's robustness contract —

* **Crash recovery.**  A shard that exits unexpectedly is restarted
  with exponential backoff.  Restarts are budgeted per shard over a
  sliding window; a crash-looping shard trips the **circuit breaker**
  and is *benched* — the cluster degrades to fewer shards instead of
  flapping, and keeps serving on the survivors.
* **Hang detection.**  Every shard heartbeats over a pipe; silence past
  the liveness deadline gets the shard SIGKILLed and restarted (a hang
  spends restart budget exactly like a crash).
* **Readiness floor.**  The supervisor pushes its cluster view to every
  shard; ``/healthz/ready`` answers 503 whenever fewer than
  ``min_shards`` shards are ready, so an edge LB sheds load before the
  shards' queues do.
* **Rolling restart** (SIGHUP).  Surge-style, one shard at a time:
  spawn a replacement, wait until it heartbeats ready, *then* drain the
  old shard — live capacity never dips below the configured shard
  count, and every in-flight request finishes (PR 5's per-shard drain).
* **Graceful drain** (SIGTERM/SIGINT).  Every shard gets the drain
  command, finishes its queue, and exits; stragglers past the deadline
  are killed so the parent always terminates.
* **Aggregated metrics** (``metrics_port``).  Shards ship a metrics
  snapshot in every heartbeat; the supervisor serves one merged
  Prometheus exposition — counters and histograms summed across every
  incarnation that ever reported (monotone across restarts), gauges
  kept per live shard with ``shard="N"`` labels — plus a JSON
  ``/status``, from a tiny listener inside the supervision loop.
* **Queue-depth autoscaling** (``max_shards``).  A time-aware EWMA of
  pending-queue depth per ready shard drives spawn (above
  ``scale_up_depth``) and retire-the-newest-idle-shard (below
  ``scale_down_depth``, through the ordinary drain path), bounded by
  ``min_shards``/``max_shards`` with cooldown hysteresis; benched
  slots keep counting against the ceiling so the circuit breaker's
  verdict stands.

The restart and autoscale policies are pure decisions (samples in, a
verdict out: :meth:`RestartPolicy.decide`, :class:`AutoscalePolicy`);
the loop reads the clock and carries their verdicts out.

Shard lifecycle (``shard.spawn`` / ``shard.exit`` / ``shard.restart`` /
``shard.benched`` / ``shard.hung`` / ``cluster.ready`` /
``cluster.degraded`` / ``cluster.drained``) is reported through the
structured JSONL event log with trace correlation, and the supervisor
aggregates per-shard heartbeat stats into ``cluster.*`` gauges of its
own registry.

The supervisor is deliberately not an asyncio program: it is a small
``selectors``-based loop over heartbeat pipes, a self-pipe for
thread/signal-safe commands, and monotonic deadlines — trivially
testable by driving the loop from a thread, with stub shard commands
standing in for real children.
"""

from __future__ import annotations

import contextlib
import copy
import json
import logging
import math
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from inspect import signature
from typing import Sequence

from ..errors import ParameterError
from ..obs.log import event, get_logger
from ..obs.metrics import MetricsRegistry
from ..obs.promexport import (
    merge_snapshots,
    render_cluster_metrics,
    render_prometheus,
)
from ..obs.propagation import activate, deactivate, new_context
from .app import RATApp
from .cluster import ShardConfig, create_listen_socket
from .protocol import (
    MAX_HEAD_BYTES,
    ProtocolError,
    Response,
    error_body,
    format_response,
    parse_head,
)

__all__ = [
    "AutoscalePolicy",
    "RestartPolicy",
    "SCALE_UP",
    "Shard",
    "Supervisor",
    "run_cluster",
]

_log = get_logger("serve.supervisor")

#: Heartbeat stat keys the supervisor accepts from shards.  Everything
#: else is dropped (with a one-time warning per key): a misbehaving or
#: chaos-injected shard must not grow supervisor state or the metrics
#: registry without bound through made-up beat fields.
_BEAT_KEYS = frozenset({
    "shard",
    "state",
    "requests",
    "inflight",
    "queue_depth",
    "predictions",
    "batches",
    "batch_seconds_ewma",
})

# Shard lifecycle states.
STARTING = "starting"
READY = "ready"
DRAINING = "draining"
BENCHED = "benched"
STOPPED = "stopped"

#: :meth:`AutoscalePolicy.decide`'s verdict to spawn a shard.
SCALE_UP = "up"


@dataclass(frozen=True)
class RestartPolicy:
    """Backoff and circuit-breaker budget for shard restarts.

    A shard gets at most ``budget`` restarts within any sliding
    ``window_s``; exceeding it benches the shard.  Backoff grows by
    ``backoff_factor`` per consecutive restart (``backoff_initial_s``
    -> ``backoff_max_s``) and resets once a restarted shard is ready.
    """

    backoff_initial_s: float = 0.1
    backoff_max_s: float = 5.0
    backoff_factor: float = 2.0
    budget: int = 5
    window_s: float = 30.0

    def __post_init__(self) -> None:
        if self.backoff_initial_s <= 0 or self.backoff_max_s <= 0:
            raise ParameterError("backoff bounds must be > 0")
        if self.backoff_factor < 1.0:
            raise ParameterError("backoff_factor must be >= 1")
        if self.budget < 1:
            raise ParameterError("restart budget must be >= 1")
        if self.window_s <= 0:
            raise ParameterError("restart window must be > 0")

    def next_backoff(self, current_s: float) -> float:
        if current_s <= 0:
            return self.backoff_initial_s
        return min(current_s * self.backoff_factor, self.backoff_max_s)

    def decide(
        self, restart_times: Sequence[float], now: float, backoff_s: float
    ) -> tuple[tuple[float, ...], float | None]:
        """A crash at ``now``: the restart times to keep (those within
        ``window_s``, ``now`` included), and the next backoff after
        ``backoff_s``, or None to bench the shard (over ``budget``)."""
        kept = (*(t for t in restart_times if now - t <= self.window_s), now)
        if len(kept) > self.budget:
            return kept, None
        return kept, self.next_backoff(backoff_s)


@dataclass(frozen=True)
class AutoscalePolicy:
    """Queue-depth autoscaling: bounds, hysteresis and smoothing.

    The signal is the pending-queue depth per *ready* shard, smoothed by
    :meth:`smooth` and acted on by :meth:`decide`.
    """

    min_shards: int
    max_shards: int | None  # None disables autoscaling
    scale_up_depth: float
    scale_down_depth: float
    cooldown_s: float
    smoothing_s: float

    def __post_init__(self) -> None:
        if not 0 <= self.scale_down_depth < self.scale_up_depth:
            raise ParameterError(
                "need scale_up_depth > scale_down_depth >= 0, got "
                f"{self.scale_up_depth} / {self.scale_down_depth}"
            )
        if self.cooldown_s < 0:
            raise ParameterError("scale_cooldown_s must be >= 0")
        if self.smoothing_s <= 0:
            raise ParameterError("scale_smoothing_s must be > 0")

    def smooth(
        self, ewma: float, ewma_at: float | None, sample: float, now: float
    ) -> float:
        """The EWMA after ``sample`` at ``now``; the first (``ewma_at``
        None) seeds it.  A later one weighs ``1 - exp(-dt/smoothing_s)``,
        so irregular loop ticks weigh by elapsed time, not tick count."""
        if ewma_at is None:
            return sample
        alpha = 1.0 - math.exp(-max(now - ewma_at, 0.0) / self.smoothing_s)
        return ewma + alpha * (sample - ewma)

    def decide(
        self,
        ewma: float,
        since_scale_s: float,
        ready: Sequence[tuple[int, object, object]],
        slots: int,
        starting: bool,
    ) -> str | int | None:
        """:data:`SCALE_UP`, the id of the shard to retire, or None.

        ``ready`` holds ``(shard_id, queue_depth, inflight)`` per ready
        shard; ``slots`` counts benched slots too, so the breaker's
        verdict stands.  Scale-up waits for any ``starting`` shard, so
        a load step spawns one shard at a time; scale-down retires the
        newest idle ready shard.
        """
        if since_scale_s < self.cooldown_s:
            return None
        if (
            ewma > self.scale_up_depth
            and slots < self.max_shards
            and not starting
        ):
            return SCALE_UP
        if ewma < self.scale_down_depth and len(ready) > self.min_shards:
            idle = [i for i, depth, inflight in ready if not (depth or inflight)]
            return max(idle, default=None)
        return None


@dataclass
class Shard:
    """One shard slot: stable identity across process incarnations."""

    shard_id: int
    state: str = STARTING
    proc: subprocess.Popen | None = None
    heartbeat_fd: int = -1
    control_fd: int = -1
    spawned_at: float = 0.0
    last_beat: float = 0.0
    stats: dict = field(default_factory=dict)
    restart_times: tuple[float, ...] = ()  # kept by RestartPolicy.decide
    backoff_s: float = 0.0
    restart_at: float | None = None  # pending respawn deadline
    expected_exit: bool = False  # drained on purpose (stop / rolling)
    hung: bool = False
    buffer: bytearray = field(default_factory=bytearray)
    #: Latest metrics snapshot from the *current* incarnation.
    metrics_live: dict = field(default_factory=dict)
    #: Summed snapshots of this slot's *dead* incarnations, so cluster
    #: counters never go backwards when a shard restarts.
    metrics_acc: dict = field(default_factory=dict)

    @property
    def pid(self) -> int | None:
        return self.proc.pid if self.proc is not None else None


class Supervisor:
    """Parent process of the shard cluster (see module docstring)."""

    def __init__(
        self,
        *,
        shards: int = 2,
        min_shards: int = 1,
        host: str = "127.0.0.1",
        port: int = 8321,
        policy: RestartPolicy | None = None,
        heartbeat_interval_s: float = 0.25,
        liveness_timeout_s: float = 3.0,
        boot_timeout_s: float = 20.0,
        drain_timeout_s: float = 10.0,
        quiet: bool = True,
        access_log: str | None = None,
        shard_command: list[str] | None = None,
        chaos: dict[int, list[str]] | None = None,
        metrics_port: int | None = None,
        max_shards: int | None = None,
        scale_up_depth: float = 8.0,
        scale_down_depth: float = 1.0,
        scale_cooldown_s: float = 5.0,
        scale_smoothing_s: float = 1.0,
        **app_options,
    ) -> None:
        if not hasattr(socket, "SO_REUSEPORT"):
            raise ParameterError(
                "cluster mode needs SO_REUSEPORT, which this platform "
                "lacks; run `rat serve` without --shards"
            )
        # RATApp options reach the shards as given: fail on a typo here,
        # not in every shard.
        signature(RATApp).bind(**app_options)
        if shards < 1:
            raise ParameterError(f"shards must be >= 1, got {shards}")
        if not 1 <= min_shards <= shards:
            raise ParameterError(
                f"min_shards must be in [1, {shards}], got {min_shards}"
            )
        if max_shards is not None and max_shards < shards:
            raise ParameterError(
                f"max_shards must be >= shards ({shards}), got {max_shards}"
            )
        self.n_shards = int(shards)
        self.min_shards = int(min_shards)
        #: Autoscaler bounds + hysteresis (max_shards None = disabled),
        #: checked before any pipe is opened.
        self.max_shards = None if max_shards is None else int(max_shards)
        self.autoscale = AutoscalePolicy(
            min_shards=self.min_shards,
            max_shards=self.max_shards,
            scale_up_depth=float(scale_up_depth),
            scale_down_depth=float(scale_down_depth),
            cooldown_s=float(scale_cooldown_s),
            smoothing_s=float(scale_smoothing_s),
        )
        self.host = host
        self.port = int(port)
        self.policy = policy or RestartPolicy()
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.liveness_timeout_s = float(liveness_timeout_s)
        self.boot_timeout_s = float(boot_timeout_s)
        self.drain_timeout_s = float(drain_timeout_s)
        self.quiet = quiet
        self.access_log = access_log
        #: Override the shard argv prefix (tests inject a stub child
        #: that speaks the heartbeat/control protocol without numpy).
        self.shard_command = shard_command
        #: Test-only fault injection: shard slot -> queue of chaos
        #: directives, one consumed per (re)spawn.
        self.chaos = {k: list(v) for k, v in (chaos or {}).items()}
        self.app_options = app_options
        self.restarts = 0
        self.active: list[Shard] = []
        self.benched: list[Shard] = []
        self._next_id = 0
        self._holder = None  # SO_REUSEPORT port reservation socket
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        self._commands: deque[str] = deque()
        self._stopping = False
        self._stop_deadline = math.inf
        self._finished = False
        self._started = False
        self._cluster_ready: bool | None = None
        self._ready_count = -1
        self._rolling: deque[int] = deque()  # shard ids left to recycle
        self._rolling_step: dict | None = None
        self._status: dict = {"running": False}
        self._trace_context = None
        #: Requests served by shard incarnations that have exited, so
        #: cumulative totals survive restarts and the final drain.
        self._done_totals = {"requests": 0, "predictions": 0, "batches": 0}
        self._totals = dict(self._done_totals)
        #: Aggregated /metrics listener (None disables; 0 = ephemeral).
        self.metrics_port = metrics_port
        self._metrics_sock = None
        #: Summed metrics snapshots of slots that left the cluster
        #: (drained, stopped, benched) — the base every merged counter
        #: stands on, so retirement never drops history.
        self._metrics_retired: dict = {"c": {}, "h": {}}
        #: Heartbeat keys already warned about (one event per key).
        self._unknown_stat_keys: set[str] = set()
        self._depth_ewma = 0.0
        self._ewma_at: float | None = None
        self._last_scale_at = -math.inf
        self.scale_ups = 0
        self.scale_downs = 0
        #: The supervisor's own ``cluster.*`` instruments, apart from the
        #: process registry: a co-resident app (tests, benches) can't
        #: collide with the shard-summed series on the merged page.
        self.metrics = MetricsRegistry()
        self._g_live = self.metrics.gauge("cluster.shards_live")
        self._g_ready = self.metrics.gauge("cluster.shards_ready")
        self._g_benched = self.metrics.gauge("cluster.shards_benched")
        self._g_depth_ewma = self.metrics.gauge("cluster.queue_depth_ewma")
        self._c_restarts = self.metrics.counter("cluster.restarts")
        self._c_benched = self.metrics.counter("cluster.benched")
        self._c_scale_up = self.metrics.counter("cluster.scale_up")
        self._c_scale_down = self.metrics.counter("cluster.scale_down")

    # ---- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Resolve the port, spawn the initial shard set."""
        if self._started:
            raise ParameterError("supervisor is already running")
        self._started = True
        # One trace identity for the whole cluster lifetime, so every
        # lifecycle event correlates in the JSONL log.  The context is
        # (re)activated per thread — contextvars don't cross threads, and
        # ``run()`` may execute on a different one than ``start()``.
        self._trace_context = new_context()
        token = activate(self._trace_context)
        try:
            self._start_locked()
        finally:
            deactivate(token)

    def _start_locked(self) -> None:
        # Bound (not listening) placeholder: resolves --port 0 to a
        # concrete port and reserves it while shards come and go.
        self._holder = create_listen_socket(
            self.host, self.port, reuse_port=True, listen=False
        )
        self.port = self._holder.getsockname()[1]
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)
        if self.metrics_port is not None:
            # Supervisor-side scrape endpoint: merged cluster /metrics
            # plus /status, served from the supervision loop itself (no
            # thread, no asyncio — a scrape is one read + one write).
            self._metrics_sock = create_listen_socket(
                self.host, self.metrics_port, reuse_port=False
            )
            self.metrics_port = self._metrics_sock.getsockname()[1]
            self._selector.register(
                self._metrics_sock, selectors.EVENT_READ, "metrics"
            )
        event(
            _log, "cluster.starting",
            host=self.host, port=self.port, shards=self.n_shards,
            min_shards=self.min_shards, reuse_port=True,
            metrics_port=self.metrics_port, max_shards=self.max_shards,
        )
        for _ in range(self.n_shards):
            self._spawn_slot()
        self._refresh_cluster_state()
        self._publish_status()

    def run(self) -> None:
        """The supervision loop; returns once the cluster is drained."""
        if not self._started:
            self.start()
        token = activate(self._trace_context)
        try:
            while not self._finished:
                for key, _ in self._selector.select(timeout=0.05):
                    if key.fd == self._wake_r:
                        self._drain_wake_pipe()
                    elif isinstance(key.data, bytearray):  # a scrape's head
                        self._read_scrape(key.fileobj, key.data)
                    elif key.data == "metrics":
                        self._accept_scrapes()
                    else:
                        self._read_heartbeats(key.data)
                self._run_commands()
                self._reap_exits()
                self._check_liveness()
                self._run_restarts()
                self._advance_rolling()
                self._advance_autoscale()
                self._advance_stop()
                self._refresh_cluster_state()
                self._publish_status()
        finally:
            try:
                self._cleanup()
            finally:
                deactivate(token)

    # ---- thread/signal-safe external API -----------------------------------

    def stop(self) -> None:
        """Begin graceful cluster drain (callable from any thread)."""
        self._post("stop")

    def rolling_restart(self) -> None:
        """Recycle every shard, one at a time (callable from any thread)."""
        self._post("rolling")

    def status(self) -> dict:
        """A point-in-time cluster snapshot (safe from any thread).

        A deep copy: the supervision loop rebinds nested ``stats``
        dicts concurrently, and callers may freely mutate what they get
        back without corrupting supervisor state.
        """
        return copy.deepcopy(self._status)

    def wait_ready(
        self, count: int | None = None, timeout_s: float = 30.0
    ) -> bool:
        """Block until ``count`` shards are ready (default: all)."""
        want = self.n_shards if count is None else count
        return self._wait(
            lambda status: status.get("ready_shards", 0) >= want, timeout_s
        )

    def wait_finished(self, timeout_s: float = 30.0) -> bool:
        return self._wait(lambda status: status.get("finished"), timeout_s)

    def _wait(self, done, timeout_s: float) -> bool:
        """Poll ``status()`` until ``done(status)``; False on timeout or
        once the cluster finished without it."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            snapshot = self.status()
            if done(snapshot):
                return True
            if snapshot.get("finished"):
                return False
            time.sleep(0.02)
        return False

    def shard_pids(self) -> dict[int, int]:
        """Live shard id -> pid (for the chaos harness to aim at)."""
        return {
            s["id"]: s["pid"]
            for s in self.status().get("shards", [])
            if s.get("pid")
        }

    def _post(self, command: str) -> None:
        self._commands.append(command)
        with contextlib.suppress(OSError):
            os.write(self._wake_w, b"x")

    def _announce(self, name: str, text: str, **fields) -> None:
        """Log lifecycle event ``name``; unless quiet, print ``text``."""
        event(_log, name, **fields)
        if not self.quiet:
            print(f"rat serve: {text}", flush=True)

    # ---- spawning ----------------------------------------------------------

    def _spawn_slot(self) -> Shard:
        shard = Shard(shard_id=self._next_id)
        self._next_id += 1
        self.active.append(shard)
        self._spawn(shard)
        return shard

    def _shard_argv(self, config: ShardConfig) -> list[str]:
        if self.shard_command is not None:
            return [*self.shard_command, config.to_json()]
        # `-c` rather than `-m repro.serve.cluster`: the package
        # __init__ already imports the module, and runpy would execute
        # it a second time (with a RuntimeWarning to match).
        return [
            sys.executable,
            "-c",
            "import sys; from repro.serve.cluster import main;"
            " sys.exit(main(sys.argv[1:]))",
            config.to_json(),
        ]

    def _child_env(self) -> dict[str, str]:
        # The child must import `repro` exactly as the parent did, even
        # when the parent runs from a source tree without installation.
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__
        )))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        if src_dir not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                f"{src_dir}{os.pathsep}{existing}" if existing else src_dir
            )
        return env

    def _spawn(self, shard: Shard) -> None:
        heartbeat_r, heartbeat_w = os.pipe()
        control_r, control_w = os.pipe()
        chaos_queue = self.chaos.get(shard.shard_id, [])
        chaos = chaos_queue.pop(0) if chaos_queue else ""
        config = ShardConfig(
            shard_id=shard.shard_id,
            host=self.host,
            port=self.port,
            heartbeat_fd=heartbeat_w,
            control_fd=control_r,
            heartbeat_interval_s=self.heartbeat_interval_s,
            cluster_ready=bool(self._cluster_ready),
            chaos=chaos,
            access_log=self.access_log,
            drain_timeout_s=self.drain_timeout_s,
            app=self.app_options,
        )
        try:
            shard.proc = subprocess.Popen(
                self._shard_argv(config),
                pass_fds=(heartbeat_w, control_r),
                env=self._child_env(),
            )
        finally:
            os.close(heartbeat_w)
            os.close(control_r)
        os.set_blocking(heartbeat_r, False)
        os.set_blocking(control_w, False)
        shard.heartbeat_fd = heartbeat_r
        shard.control_fd = control_w
        shard.state = STARTING
        shard.spawned_at = time.monotonic()
        shard.last_beat = shard.spawned_at
        shard.hung = False
        shard.expected_exit = False
        shard.buffer.clear()
        shard.metrics_live = {}
        shard.restart_at = None
        self._selector.register(heartbeat_r, selectors.EVENT_READ, shard)
        self._announce(
            "shard.spawn",
            f"shard {shard.shard_id} spawned (pid {shard.proc.pid})",
            shard=shard.shard_id, pid=shard.proc.pid, chaos=chaos or None,
        )

    def _close_shard_fds(self, shard: Shard) -> None:
        if shard.heartbeat_fd >= 0:
            with contextlib.suppress(KeyError, ValueError):
                self._selector.unregister(shard.heartbeat_fd)
            with contextlib.suppress(OSError):
                os.close(shard.heartbeat_fd)
            shard.heartbeat_fd = -1
        if shard.control_fd >= 0:
            with contextlib.suppress(OSError):
                os.close(shard.control_fd)
            shard.control_fd = -1

    # ---- control plane -----------------------------------------------------

    def _send(self, shard: Shard, message: dict) -> bool:
        if shard.control_fd < 0:
            return False
        data = json.dumps(message, separators=(",", ":")).encode() + b"\n"
        try:
            os.write(shard.control_fd, data)
            return True
        except (BrokenPipeError, BlockingIOError, OSError):
            return False

    def _broadcast(self, message: dict) -> None:
        for shard in self.active:
            if shard.proc is not None and shard.proc.poll() is None:
                self._send(shard, message)

    def _drain_shard(self, shard: Shard) -> None:
        shard.expected_exit = True
        shard.state = DRAINING
        sent = self._send(shard, {"op": "drain"})
        if not sent and shard.proc is not None:
            # Control pipe already broken: fall back to the signal the
            # shard wires to the same drain path.
            with contextlib.suppress(OSError):
                shard.proc.send_signal(signal.SIGTERM)

    # ---- loop steps --------------------------------------------------------

    def _drain_wake_pipe(self) -> None:
        with contextlib.suppress(OSError):
            while os.read(self._wake_r, 4096):
                pass

    def _run_commands(self) -> None:
        while self._commands:
            command = self._commands.popleft()
            if command == "stop":
                self._begin_stop()
            elif command == "rolling":
                self._begin_rolling()

    def _read_heartbeats(self, shard: Shard) -> None:
        try:
            data = os.read(shard.heartbeat_fd, 65536)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            # EOF: the shard closed its end (exit path); the reaper
            # handles the process itself.
            with contextlib.suppress(KeyError, ValueError):
                self._selector.unregister(shard.heartbeat_fd)
            return
        shard.buffer.extend(data)
        if b"\n" not in data:
            return
        # One split per read (not per line): a burst of queued beats
        # after a stall costs O(bytes), not O(lines * bytes).  Only the
        # trailing partial line survives in the buffer.
        *lines, tail = shard.buffer.split(b"\n")
        shard.buffer[:] = tail
        for line in lines:
            try:
                beat = json.loads(line)
            except ValueError:
                continue  # torn heartbeat line; the next one completes
            if not isinstance(beat, dict):
                continue
            shard.last_beat = time.monotonic()
            snapshot = beat.pop("metrics", None)
            if isinstance(snapshot, dict):
                self._absorb_snapshot(shard, snapshot)
            unknown = set(beat) - _BEAT_KEYS
            if unknown:
                # Drop keys the contract doesn't know: shard-supplied
                # names must never mint supervisor state.  Warn once
                # per key, not once per beat.
                beat = {k: v for k, v in beat.items() if k in _BEAT_KEYS}
                fresh = unknown - self._unknown_stat_keys
                if fresh:
                    self._unknown_stat_keys.update(fresh)
                    event(
                        _log, "heartbeat.unknown_keys",
                        shard=shard.shard_id, keys=sorted(fresh),
                        level=logging.WARNING,
                    )
            shard.stats = beat
            state = beat.get("state")
            if state == "ready" and shard.state == STARTING:
                shard.state = READY
                shard.backoff_s = 0.0
                self._announce(
                    "shard.ready",
                    f"shard {shard.shard_id} ready (pid {shard.pid})",
                    shard=shard.shard_id, pid=shard.pid,
                )
            elif state == "draining" and shard.state in (STARTING, READY):
                shard.state = DRAINING

    def _absorb_snapshot(self, shard: Shard, snapshot: dict) -> None:
        """Take a shard's latest metrics snapshot, reset-safe.

        Within one incarnation counters only grow; a counter that went
        *down* means the previous snapshot belonged to a process we
        never saw exit (or a torn/confused shard), so the old snapshot
        is banked into the slot's accumulator first — summed cluster
        counters can then never go backwards.
        """
        live = shard.metrics_live
        if live:
            previous = live.get("c") or {}
            current = snapshot.get("c") or {}
            for name, value in previous.items():
                new = current.get(name)
                if not isinstance(new, (int, float)) or new < value:
                    shard.metrics_acc = merge_snapshots(
                        [shard.metrics_acc, live]
                    )
                    break
        shard.metrics_live = snapshot

    def _fold_incarnation_metrics(self, shard: Shard) -> None:
        """Bank the dead incarnation's snapshot into the slot total."""
        if shard.metrics_live:
            shard.metrics_acc = merge_snapshots(
                [shard.metrics_acc, shard.metrics_live]
            )
            shard.metrics_live = {}

    def _retire(self, shard: Shard, state: str) -> None:
        """Take a slot out of ``active`` for good (drained, stopped or
        benched) and fold its history into the cluster base.

        Its counters/histograms keep counting in the aggregate forever,
        while its per-shard *gauges* — which only ever come from the
        live snapshot — disappear from the exposition.
        """
        shard.state = state
        self.active.remove(shard)
        self._fold_incarnation_metrics(shard)
        if shard.metrics_acc:
            self._metrics_retired = merge_snapshots(
                [self._metrics_retired, shard.metrics_acc]
            )
            shard.metrics_acc = {}

    def _reap_exits(self) -> None:
        for shard in list(self.active):
            if shard.proc is None:
                continue
            returncode = shard.proc.poll()
            if returncode is None:
                continue
            self._close_shard_fds(shard)
            shard.proc = None
            for key in self._done_totals:
                value = shard.stats.get(key)
                if isinstance(value, (int, float)):
                    self._done_totals[key] += value
            shard.stats = {}
            self._fold_incarnation_metrics(shard)
            event(
                _log, "shard.exit",
                shard=shard.shard_id, returncode=returncode,
                expected=shard.expected_exit, hung=shard.hung,
            )
            if shard.expected_exit or self._stopping:
                self._retire(shard, STOPPED)
            else:
                self._schedule_restart(shard)

    def _schedule_restart(self, shard: Shard) -> None:
        now = time.monotonic()
        shard.restart_times, backoff_s = self.policy.decide(
            shard.restart_times, now, shard.backoff_s
        )
        in_window = len(shard.restart_times)
        if backoff_s is None:
            self._retire(shard, BENCHED)
            self.benched.append(shard)
            self._c_benched.inc()
            self._announce(
                "shard.benched",
                f"shard {shard.shard_id} benched after {in_window} "
                f"restarts in {self.policy.window_s:g}s (circuit breaker)",
                shard=shard.shard_id, restarts_in_window=in_window,
                window_s=self.policy.window_s,
            )
            return
        shard.backoff_s = backoff_s
        shard.restart_at = now + backoff_s
        shard.state = STARTING
        self.restarts += 1
        self._c_restarts.inc()
        event(
            _log, "shard.restart",
            shard=shard.shard_id, backoff_s=backoff_s,
            restarts_in_window=in_window,
        )

    def _check_liveness(self) -> None:
        if self._stopping:
            return
        now = time.monotonic()
        for shard in self.active:
            if shard.proc is None or shard.expected_exit:
                continue
            if shard.state == STARTING and shard.restart_at is not None:
                continue  # not respawned yet
            deadline = (
                shard.spawned_at + self.boot_timeout_s
                if shard.state == STARTING
                else shard.last_beat + self.liveness_timeout_s
            )
            if now < deadline:
                continue
            shard.hung = True
            event(
                _log, "shard.hung",
                shard=shard.shard_id, pid=shard.pid,
                silent_s=now - shard.last_beat,
            )
            with contextlib.suppress(OSError):
                shard.proc.kill()

    def _run_restarts(self) -> None:
        if self._stopping:
            return
        now = time.monotonic()
        for shard in self.active:
            if (
                shard.proc is None
                and shard.restart_at is not None
                and now >= shard.restart_at
            ):
                self._spawn(shard)

    # ---- rolling restart ---------------------------------------------------

    def _begin_rolling(self) -> None:
        if self._stopping or self._rolling or self._rolling_step:
            return
        ids = [s.shard_id for s in self.active if s.proc is not None]
        if not ids:
            return
        self._rolling.extend(ids)
        self._announce(
            "cluster.rolling_restart", f"rolling restart of shards {ids}",
            shards=ids,
        )

    def _advance_rolling(self) -> None:
        if self._stopping:
            self._rolling.clear()
            self._rolling_step = None
            return
        step = self._rolling_step
        now = time.monotonic()
        if step is None:
            if not self._rolling:
                return
            old_id = self._rolling.popleft()
            old = next(
                (s for s in self.active if s.shard_id == old_id), None
            )
            if old is None or old.proc is None:
                return  # crashed/benched since enqueue; nothing to recycle
            # Surge: bring the replacement up before draining the old
            # shard, so live capacity never dips below the floor.
            replacement = self._spawn_slot()
            self._rolling_step = {
                "old": old,
                "new": replacement,
                "phase": "wait_ready",
                "deadline": now + self.boot_timeout_s,
            }
            return
        old, new = step["old"], step["new"]
        if step["phase"] == "wait_ready":
            if new.state == READY:
                self._drain_shard(old)
                step["phase"] = "wait_exit"
                step["deadline"] = now + self.drain_timeout_s + 5.0
            elif new not in self.active or now >= step["deadline"]:
                # Replacement failed to come up: keep the old shard,
                # abort the rest of the rolling restart.
                event(
                    _log, "cluster.rolling_aborted",
                    shard=new.shard_id,
                )
                if new in self.active and new.proc is not None:
                    new.expected_exit = True
                    with contextlib.suppress(OSError):
                        new.proc.kill()
                self._rolling.clear()
                self._rolling_step = None
        elif step["phase"] == "wait_exit":
            if old not in self.active:
                self._rolling_step = None  # recycled; next shard
            elif now >= step["deadline"] and old.proc is not None:
                with contextlib.suppress(OSError):
                    old.proc.kill()

    # ---- autoscaling -------------------------------------------------------

    def _advance_autoscale(self) -> None:
        """Carry out :class:`AutoscalePolicy`'s verdicts.  Scale-down
        goes through the ordinary drain path: in-flight and queued
        requests finish, and the expected exit spends no restart budget.
        """
        if self.max_shards is None or self._stopping:
            return
        if self._rolling or self._rolling_step:
            return
        ready = [
            (s.shard_id, s.stats.get("queue_depth"), s.stats.get("inflight"))
            for s in self.active
            if s.state == READY
        ]
        if not ready:
            return
        depth = sum(d for _, d, _ in ready if isinstance(d, (int, float)))
        now = time.monotonic()
        self._depth_ewma = self.autoscale.smooth(
            self._depth_ewma, self._ewma_at, depth / len(ready), now
        )
        self._ewma_at = now
        self._g_depth_ewma.set(self._depth_ewma)
        verdict = self.autoscale.decide(
            self._depth_ewma,
            now - self._last_scale_at,
            ready,
            len(self.active) + len(self.benched),
            any(s.state == STARTING for s in self.active),
        )
        if verdict is None:
            return
        self._last_scale_at = now
        if verdict == SCALE_UP:
            shard = self._spawn_slot()
            self.scale_ups += 1
            self._c_scale_up.inc()
            self._announce(
                "cluster.scale_up",
                f"scale-up -> shard {shard.shard_id} "
                f"(queue depth {self._depth_ewma:.1f}/ready-shard)",
                shard=shard.shard_id, depth_ewma=self._depth_ewma,
                ready_shards=len(ready),
            )
            return
        victim = next(s for s in self.active if s.shard_id == verdict)
        self._drain_shard(victim)
        self.scale_downs += 1
        self._c_scale_down.inc()
        self._announce(
            "cluster.scale_down",
            f"scale-down -> draining shard {victim.shard_id} (idle, queue "
            f"depth {self._depth_ewma:.2f}/ready-shard)",
            shard=victim.shard_id, depth_ewma=self._depth_ewma,
            ready_shards=len(ready),
        )

    # ---- aggregated metrics endpoint ---------------------------------------

    def cluster_metrics_text(self) -> str:
        """The merged cluster exposition, after the supervisor's own
        ``cluster.*`` series.

        Counters and histograms are summed over every incarnation that
        ever reported (retired base + per-slot accumulators + live
        snapshots) — monotone across restarts by construction.  Gauges
        come only from live shards, labeled ``shard="N"``; a retired
        shard's gauge series simply stops appearing.
        """
        parts = [self._metrics_retired]
        gauges: dict[str, dict] = {}
        for shard in self.active:
            if shard.metrics_acc:
                parts.append(shard.metrics_acc)
            if shard.metrics_live:
                parts.append(shard.metrics_live)
                live_gauges = shard.metrics_live.get("g")
                if shard.proc is not None and isinstance(live_gauges, dict):
                    gauges[str(shard.shard_id)] = live_gauges
        return render_prometheus(self.metrics) + render_cluster_metrics(
            merge_snapshots(parts), gauges
        )

    def _accept_scrapes(self) -> None:
        while True:
            try:
                conn, _ = self._metrics_sock.accept()
            except (BlockingIOError, OSError):
                return
            conn.setblocking(False)
            try:
                self._selector.register(
                    conn, selectors.EVENT_READ, bytearray()
                )
            except (KeyError, ValueError):  # pragma: no cover
                conn.close()

    def _read_scrape(self, sock: socket.socket, buffer: bytearray) -> None:
        try:
            data = sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if data:
            buffer.extend(data)
            if (
                b"\r\n\r\n" not in buffer
                and len(buffer) <= MAX_HEAD_BYTES
            ):
                return  # head incomplete; wait for more
        self._finish_scrape(sock, buffer)

    def _scrape_response(self, data: bytes) -> Response:
        """Answer a scrape from the bytes read: EOF or a full head."""
        end = data.find(b"\r\n\r\n")
        if end < 0 and len(data) <= MAX_HEAD_BYTES:
            return error_body("incomplete request head", 400)
        if end < 0 or end + 4 > MAX_HEAD_BYTES:
            return error_body("request head too large", 431)
        try:
            method, path, _, _, _ = parse_head(data[:end])
        except ProtocolError as exc:
            return error_body(str(exc), exc.status)
        if method != "GET":
            return error_body("GET only", 405)
        if path == "/metrics":
            return Response(
                body=self.cluster_metrics_text().encode(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/status":
            return Response(body=json.dumps(self.status()).encode())
        return error_body("not found", 404)

    def _finish_scrape(self, sock: socket.socket, buffer: bytearray) -> None:
        with contextlib.suppress(KeyError, ValueError):
            self._selector.unregister(sock)
        try:
            response = format_response(
                self._scrape_response(bytes(buffer)), keep_alive=False
            )
            # A scrape response is small and the peer is a scraper on
            # localhost: a short blocking send keeps the loop simple.
            sock.setblocking(True)
            sock.settimeout(2.0)
            sock.sendall(response)
        except OSError:
            pass
        finally:
            with contextlib.suppress(OSError):
                sock.close()

    # ---- cluster drain -----------------------------------------------------

    def _begin_stop(self) -> None:
        if self._stopping:
            return
        self._stopping = True
        self._stop_deadline = (
            time.monotonic() + self.drain_timeout_s + 5.0
        )
        event(_log, "cluster.draining", shards=len(self.active))
        for shard in list(self.active):
            if shard.proc is None:
                self._retire(shard, STOPPED)
            else:
                self._drain_shard(shard)

    def _advance_stop(self) -> None:
        if not self._stopping:
            return
        if not self.active:
            self._finished = True
            return
        if time.monotonic() >= self._stop_deadline:
            for shard in self.active:
                if shard.proc is not None:
                    with contextlib.suppress(OSError):
                        shard.proc.kill()
            self._stop_deadline = time.monotonic() + 5.0

    # ---- cluster state / status --------------------------------------------

    def _refresh_cluster_state(self) -> None:
        ready_count = sum(1 for s in self.active if s.state == READY)
        live_count = sum(1 for s in self.active if s.proc is not None)
        cluster_ready = (
            not self._stopping and ready_count >= self.min_shards
        )
        self._g_live.set(live_count)
        self._g_ready.set(ready_count)
        self._g_benched.set(len(self.benched))
        totals = dict(self._done_totals)
        for shard in self.active:
            for key in totals:
                value = shard.stats.get(key)
                if isinstance(value, (int, float)):
                    totals[key] += value
        self._totals = totals
        for key, value in totals.items():
            self.metrics.gauge(f"cluster.{key}").set(value)
        if (
            cluster_ready == self._cluster_ready
            and ready_count == self._ready_count
        ):
            return
        previous = self._cluster_ready
        transition = cluster_ready != previous
        self._cluster_ready = cluster_ready
        self._ready_count = ready_count
        self._broadcast({
            "op": "cluster",
            "ready": cluster_ready,
            "live": live_count,
            "shards": self.n_shards,
        })
        # A "degraded" event at boot (before any shard is ready) is
        # noise; announce only real transitions and the first ready.
        if transition and not self._stopping and (
            cluster_ready or previous is not None
        ):
            event(
                _log,
                "cluster.ready" if cluster_ready else "cluster.degraded",
                ready_shards=ready_count,
                live_shards=live_count,
                min_shards=self.min_shards,
            )

    def _publish_status(self) -> None:
        self._status = {
            "running": True,
            "finished": self._finished,
            "stopping": self._stopping,
            "host": self.host,
            "port": self.port,
            "shards": [
                {
                    "id": s.shard_id,
                    "state": s.state,
                    "pid": s.pid,
                    "stats": s.stats,
                }
                for s in self.active
            ],
            "benched": [s.shard_id for s in self.benched],
            "ready_shards": self._ready_count,
            "cluster_ready": bool(self._cluster_ready),
            "restarts": self.restarts,
            "rolling": bool(self._rolling or self._rolling_step),
            "requests": self._totals["requests"],
            "metrics_port": self.metrics_port,
            "max_shards": self.max_shards,
            "queue_depth_ewma": self._depth_ewma,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
        }

    def _cleanup(self) -> None:
        for shard in [*self.active, *self.benched]:
            if shard.proc is not None:
                with contextlib.suppress(OSError):
                    shard.proc.kill()
                with contextlib.suppress(OSError):
                    shard.proc.wait(timeout=5.0)
                shard.proc = None
            self._close_shard_fds(shard)
        self.active.clear()
        with contextlib.suppress(RuntimeError, KeyError):
            for key in list(self._selector.get_map().values()):
                if isinstance(key.data, bytearray):
                    with contextlib.suppress(OSError):
                        key.fileobj.close()
        if self._metrics_sock is not None:
            with contextlib.suppress(KeyError, ValueError):
                self._selector.unregister(self._metrics_sock)
            self._metrics_sock.close()
            self._metrics_sock = None
        with contextlib.suppress(KeyError, ValueError):
            self._selector.unregister(self._wake_r)
        self._selector.close()
        for fd in (self._wake_r, self._wake_w):
            with contextlib.suppress(OSError):
                os.close(fd)
        if self._holder is not None:
            self._holder.close()
            self._holder = None
        self._finished = True
        self._publish_status()
        event(_log, "cluster.drained", restarts=self.restarts)


def run_cluster(*, quiet: bool = False, **options) -> int:
    """The ``rat serve --shards N`` entry point (blocking, returns 0).

    ``options`` are :class:`Supervisor`'s.  SIGTERM and SIGINT both
    begin a graceful cluster drain; SIGHUP begins a rolling restart.
    The startup banner mirrors the single-process one (``rat serve:
    cluster listening on http://H:P``) so scripts using ``--port 0``
    can parse the bound port either way; with ``--metrics-port`` a
    second parseable banner names the aggregated-metrics listener.
    """
    supervisor = Supervisor(quiet=quiet, **options)
    if supervisor.access_log is not None:
        from ..obs.log import configure_logging

        configure_logging(supervisor.access_log)
    supervisor.start()
    previous = {}
    for signame, action in (
        (signal.SIGTERM, supervisor.stop),
        (signal.SIGINT, supervisor.stop),
        (signal.SIGHUP, supervisor.rolling_restart),
    ):
        try:
            previous[signame] = signal.signal(
                signame, lambda _s, _f, action=action: action()
            )
        except (ValueError, OSError, AttributeError):
            pass  # non-main thread or platform without the signal
    if not quiet:
        bounds = (
            f"shards={supervisor.n_shards}, min_shards={supervisor.min_shards}"
        )
        if supervisor.max_shards:
            bounds += f", max_shards={supervisor.max_shards}"
        print(
            f"rat serve: cluster listening on "
            f"http://{supervisor.host}:{supervisor.port} "
            f"({bounds})",
            flush=True,
        )
        if supervisor.metrics_port is not None:
            print(
                f"rat serve: cluster metrics on "
                f"http://{supervisor.host}:{supervisor.metrics_port}"
                f"/metrics",
                flush=True,
            )
    try:
        supervisor.run()
    finally:
        for signame, handler in previous.items():
            with contextlib.suppress(ValueError, OSError):
                signal.signal(signame, handler)
    if not quiet:
        status = supervisor.status()
        print(
            f"rat serve: cluster drained cleanly after "
            f"{status.get('requests', 0)} requests "
            f"({supervisor.restarts} restarts, "
            f"{len(supervisor.benched)} benched)",
            flush=True,
        )
    return 0
