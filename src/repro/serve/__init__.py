"""Network serving: RAT predictions behind a micro-batching HTTP API.

The paper frames RAT as an interactive pre-design test consulted
repeatedly across candidate designs; modern users of such models are
optimizer loops issuing thousands of small queries over a network.
This subsystem serves that traffic shape on the stdlib only:

``protocol``
    Socket-free HTTP/1.1 parsing/formatting over ``bytes``.
``batcher``
    :class:`MicroBatcher` — coalesces concurrent single predictions
    into struct-of-arrays batches: each time its consumer wakes it
    evaluates whatever queued, up to ``max_batch_size`` rows, with no
    timer.  Callers ride the vectorized kernel bitwise-equal to scalar
    ``predict()``, with row-level quarantine isolating invalid
    worksheets and bounded-queue admission control (429 +
    ``Retry-After``, per-request deadlines).  Its ``evaluate`` is the
    one evaluation path of both ``/v1/predict`` and ``/v1/batch``.
``app``
    :class:`RATApp` — the transport-independent route table
    (``/v1/predict``, ``/v1/batch``, ``/v1/explore``, ``/healthz``,
    ``/metrics``).
``server``
    :class:`RATServer` / :func:`serve` — the asyncio TCP transport with
    keep-alive connections and graceful SIGTERM drain.
``supervisor`` / ``cluster``
    :class:`Supervisor` / :func:`run_cluster` — the self-healing
    multi-process cluster mode (``rat serve --shards N``): N shard
    processes share the port via ``SO_REUSEPORT``, each heartbeating
    to a parent supervisor that restarts crashes with backoff, benches
    crash-loopers behind a circuit breaker, SIGKILLs hung shards, rolls
    restarts on SIGHUP without dropping below the readiness floor, and
    drains the whole cluster on SIGTERM/SIGINT.

The ``rat serve`` CLI subcommand wraps :func:`serve` (or
:func:`run_cluster` with ``--shards``);
``benchmarks/bench_serve.py`` load-tests the stack in-process and
records the shard scale curve.
"""

from .app import RATApp
from .batcher import (
    MicroBatcher,
    resolve_modes,
    scalar_diagnostic,
    worksheet_row,
)
from .protocol import (
    MAX_HEAD_BYTES,
    ProtocolError,
    Request,
    Response,
    error_body,
    format_response,
    json_response,
    parse_head,
)
from .cluster import ShardConfig, create_listen_socket
from .server import RATServer, serve
from .supervisor import RestartPolicy, Supervisor, run_cluster

__all__ = [
    "MAX_HEAD_BYTES",
    "MicroBatcher",
    "ProtocolError",
    "RATApp",
    "RATServer",
    "Request",
    "Response",
    "RestartPolicy",
    "ShardConfig",
    "Supervisor",
    "create_listen_socket",
    "error_body",
    "format_response",
    "json_response",
    "parse_head",
    "resolve_modes",
    "run_cluster",
    "scalar_diagnostic",
    "serve",
    "worksheet_row",
]
