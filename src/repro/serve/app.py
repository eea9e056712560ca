"""The prediction service's application layer: routes over JSON bodies.

:class:`RATApp` is transport-independent — it maps parsed
:class:`~repro.serve.protocol.Request` objects to
:class:`~repro.serve.protocol.Response` objects, with no socket code.
The asyncio server (:mod:`repro.serve.server`) feeds it from the wire;
tests and the benchmark's in-process load generator call
:meth:`RATApp.handle` directly.

Endpoints:

``POST /v1/predict``
    One worksheet -> the full Equations (1)-(11) result.  Requests are
    coalesced through the :class:`~repro.serve.batcher.MicroBatcher`, so
    concurrent callers share struct-of-arrays batch evaluations while
    each still receives a result bitwise-equal to scalar ``predict()``.
``POST /v1/batch``
    An array of worksheets evaluated as one batch on the event loop by
    :meth:`MicroBatcher.evaluate`, the path ``/v1/predict`` batches
    take, with row-level quarantine: invalid rows come back as per-row
    errors, valid rows still predict.
``POST /v1/explore``
    A bounded design-space sweep via :func:`repro.explore.explore` over
    a registered case study or an inline worksheet.
``GET /healthz``
    Liveness plus queue/served counters; reports ``draining`` during
    graceful shutdown.  Kept as a back-compat alias for the split
    probes below (always 200 while the process is up).
``GET /healthz/live``
    Pure liveness: 200 whenever the process can answer at all — even
    while draining.  A restart-deciding probe (kubelet, supervisor)
    should watch this, never readiness.
``GET /healthz/ready``
    Load-acceptance: 200 only when the process is not draining *and*
    (in cluster mode) the supervisor reports the cluster at or above
    its ``min_shards`` readiness floor; 503 otherwise, so an edge LB
    can shed load on status code alone, without JSON parsing.
``GET /metrics``
    The process-global :mod:`repro.obs` metrics registry in Prometheus
    text exposition format.  In cluster mode every sample carries a
    ``shard`` label.

Failure mapping is uniform: :class:`AdmissionError` -> 429 with a
``Retry-After`` header, :class:`DeadlineError` -> 504,
:class:`LimitError` / oversized payloads -> 413, validation errors ->
400, draining -> 503, anything unexpected -> 500 (and a
``serve.errors`` counter increment).
"""

from __future__ import annotations

import asyncio
import logging
import math
import time
from typing import Mapping

from ..apps.registry import get_case_study
# batch_predict, row_violations and scalar_diagnostic are not called
# here; they stay module attributes because the repository benchmark's
# tracer wraps them on this module by name.
from ..core.batch import batch_predict, row_violations
from ..core.buffering import BufferingMode
from ..core.params import RATInput
from ..errors import (
    AdmissionError,
    DeadlineError,
    LimitError,
    ParameterError,
    RATError,
    ServeError,
)
from ..obs import get_metrics, get_tracer, render_prometheus
from ..obs.log import event, get_logger
from ..obs.propagation import (
    activate,
    current_context,
    deactivate,
    format_traceparent,
    new_context,
    parse_traceparent,
)
from .batcher import (
    MicroBatcher,
    resolve_modes,
    scalar_diagnostic,
    worksheet_row,
)
from .protocol import (
    MAX_BODY_BYTES,
    ProtocolError,
    Request,
    Response,
    error_body,
    json_response,
)

__all__ = ["RATApp"]

_log = get_logger("serve")

#: Status codes whose counters are pre-registered at app construction so
#: a ``/metrics`` scrape sees every ``serve.status_*`` series from the
#: first request — no series appearing mid-flight between scrapes.
_STATUS_CODES = (400, 404, 405, 411, 413, 429, 431, 500, 501, 503, 504)

#: Default cap on prediction rows returned by ``/v1/explore``.
_EXPLORE_TOP_DEFAULT = 100


def _http_status(exc: RATError) -> tuple[int, tuple[tuple[str, str], ...]]:
    """Map a library exception to (status, extra headers)."""
    if isinstance(exc, ProtocolError):
        return exc.status, ()
    if isinstance(exc, AdmissionError):
        retry_after = max(math.ceil(exc.retry_after_s), 1)
        return 429, (("Retry-After", str(retry_after)),)
    if isinstance(exc, DeadlineError):
        return 504, ()
    if isinstance(exc, LimitError):
        return 413, ()
    if isinstance(exc, ServeError):
        return 503, ()
    return 400, ()


def _require_object(payload: object, what: str) -> Mapping[str, object]:
    # type-is-dict covers every JSON-decoded object without the cost of
    # the abc instance check; the isinstance fallback keeps Mapping
    # compatibility for programmatic callers.
    if type(payload) is dict or isinstance(payload, Mapping):
        return payload
    raise ParameterError(f"{what} must be a JSON object")


class RATApp:
    """Route table + micro-batcher behind the RAT prediction service."""

    def __init__(
        self,
        *,
        max_batch_size: int = 64,
        max_pending: int = 1024,
        max_body_bytes: int = MAX_BODY_BYTES,
        max_batch_rows: int = 4096,
        max_explore_points: int = 200_000,
        default_deadline_s: float | None = None,
        shard_id: int | None = None,
    ) -> None:
        self.batcher = MicroBatcher(
            max_batch_size=max_batch_size, max_pending=max_pending
        )
        self.max_body_bytes = int(max_body_bytes)
        self.max_batch_rows = int(max_batch_rows)
        self.max_explore_points = int(max_explore_points)
        self.default_deadline_s = default_deadline_s
        self.shard_id = shard_id
        #: Cluster view pushed by the shard supervisor over the control
        #: pipe (``{"ready": bool, "live": int, "shards": int}``); None
        #: in single-process mode, where readiness is purely local.
        self.cluster_state: dict[str, object] | None = None
        self.draining = False
        self.inflight = 0
        self.requests = 0
        metrics = get_metrics()
        self._requests_total = metrics.counter("serve.requests")
        self._request_seconds = metrics.histogram("serve.request_seconds")
        self._status_counters = {
            code: metrics.counter(f"serve.status_{code}")
            for code in _STATUS_CODES
        }

    # ---- lifecycle ---------------------------------------------------------

    async def startup(self) -> None:
        """Start the micro-batcher; requires a running event loop."""
        self.draining = False
        self.batcher.start()

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting work and (by default) finish what is queued."""
        self.draining = True
        await self.batcher.close(drain=drain)

    async def wait_idle(self, timeout_s: float = 10.0) -> bool:
        """Wait for in-flight requests to finish; True if fully idle."""
        deadline = time.perf_counter() + timeout_s
        while self.inflight > 0 or self.batcher.depth > 0:
            if time.perf_counter() >= deadline:
                return False
            await asyncio.sleep(0.005)
        return True

    # ---- dispatch ----------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        """Serve one request; never raises (errors become responses).

        Trace plumbing: an upstream ``traceparent`` header (if valid)
        seeds the request's ambient :class:`TraceContext`; otherwise —
        when the tracer or the structured log has a consumer — a fresh
        trace starts here.  The ``serve.request`` span adopts that
        context — the upstream span id becomes its ``remote_parent`` —
        and the response carries a ``traceparent`` naming the deepest
        identity this server established, so callers can stitch the
        server-side tree under their own spans.  With no upstream header
        and no telemetry consumer the identity machinery is skipped
        entirely: minting, activating, and formatting ids costs ~3µs per
        request, which is measurable at micro-batched throughput.
        """
        self._requests_total.inc()
        self.requests += 1
        self.inflight += 1
        ctx = parse_traceparent(request.headers.get("traceparent"))
        if ctx is None and (
            get_tracer().enabled or _log.isEnabledFor(logging.INFO)
        ):
            ctx = new_context()
        if ctx is not None:
            token = activate(ctx)
            trace_header = format_traceparent(ctx)
        else:
            token = None
            trace_header = ""
        started = time.perf_counter()
        try:
            try:
                with get_tracer().span(
                    "serve.request",
                    {"method": request.method, "path": request.path},
                    "serve",
                ):
                    inner = current_context()
                    if inner is not None:
                        # Narrowed to the serve.request span when the
                        # tracer records; the raw request context else.
                        trace_header = format_traceparent(inner)
                    response = await self._route(request)
            except RATError as exc:
                status, headers = _http_status(exc)
                response = error_body(str(exc), status)
                response = Response(
                    status=response.status,
                    body=response.body,
                    headers=headers,
                )
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # defensive: a bug must not kill the loop
                get_metrics().counter("serve.errors").inc()
                response = error_body(f"internal error: {exc}", 500)
            if response.status >= 400:
                counter = self._status_counters.get(response.status)
                if counter is None:
                    counter = get_metrics().counter(
                        f"serve.status_{response.status}"
                    )
                counter.inc()
            if _log.isEnabledFor(logging.INFO):
                event(
                    _log,
                    "http.access",
                    method=request.method,
                    path=request.path,
                    status=response.status,
                    duration_ms=(time.perf_counter() - started) * 1e3,
                    bytes=len(response.body),
                    queue_depth=self.batcher.depth,
                )
        finally:
            self.inflight -= 1
            self._request_seconds.observe(time.perf_counter() - started)
            if token is not None:
                deactivate(token)
        if not trace_header:
            return response
        return Response(
            status=response.status,
            body=response.body,
            content_type=response.content_type,
            headers=response.headers + (("traceparent", trace_header),),
        )

    async def _route(self, request: Request) -> Response:
        path = request.path
        if path == "/healthz":
            return self._healthz(request)
        if path == "/healthz/live":
            return self._live(request)
        if path == "/healthz/ready":
            return self._ready(request)
        if path == "/metrics":
            return self._metrics(request)
        if self.draining:
            raise ServeError("service is draining")
        if path == "/v1/predict":
            self._require_post(request)
            return await self._predict(request)
        if path == "/v1/batch":
            self._require_post(request)
            return await self._batch(request)
        if path == "/v1/explore":
            self._require_post(request)
            return await self._explore(request)
        raise ProtocolError(f"no route for {path!r}", 404)

    @staticmethod
    def _require_post(request: Request) -> None:
        if request.method != "POST":
            raise ProtocolError(
                f"{request.path} requires POST, got {request.method}", 405
            )

    # ---- endpoints ---------------------------------------------------------

    def readiness(self) -> tuple[bool, str]:
        """(ready, reason): whether this process should accept load.

        Not ready while draining, and — in cluster mode — while the
        supervisor reports the cluster below its ``min_shards``
        readiness floor (a shard that is itself healthy still sheds
        load then, so the edge LB backs off before the queue does).
        """
        if self.draining:
            return False, "draining"
        state = self.cluster_state
        if state is not None and not state.get("ready", True):
            return False, "cluster below min-shards readiness floor"
        return True, "ok"

    def _healthz(self, request: Request) -> Response:
        if request.method != "GET":
            raise ProtocolError("/healthz requires GET", 405)
        ready, _ = self.readiness()
        payload: dict[str, object] = {
            "status": "draining" if self.draining else "ok",
            "ready": ready,
            "queue_depth": self.batcher.depth,
            "inflight": self.inflight,
            "requests": self.requests,
            "batches": self.batcher.batches,
            "predictions_served": self.batcher.served,
            "batch_seconds_ewma": self.batcher.batch_seconds_ewma,
        }
        if self.shard_id is not None:
            payload["shard"] = self.shard_id
        return json_response(payload)

    def _live(self, request: Request) -> Response:
        if request.method != "GET":
            raise ProtocolError("/healthz/live requires GET", 405)
        payload: dict[str, object] = {"live": True}
        if self.shard_id is not None:
            payload["shard"] = self.shard_id
        return json_response(payload)

    def _ready(self, request: Request) -> Response:
        if request.method != "GET":
            raise ProtocolError("/healthz/ready requires GET", 405)
        ready, reason = self.readiness()
        payload: dict[str, object] = {"ready": ready, "reason": reason}
        if self.shard_id is not None:
            payload["shard"] = self.shard_id
        return json_response(payload, status=200 if ready else 503)

    def _metrics(self, request: Request) -> Response:
        if request.method != "GET":
            raise ProtocolError("/metrics requires GET", 405)
        labels = (
            {"shard": str(self.shard_id)}
            if self.shard_id is not None
            else None
        )
        return Response(
            body=render_prometheus(get_metrics(), labels=labels).encode(
                "utf-8"
            ),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    async def _predict(self, request: Request) -> Response:
        body = _require_object(request.json(), "request body")
        if "worksheet" in body:
            worksheet = _require_object(body["worksheet"], "'worksheet'")
        else:
            # Bare Table-1 worksheets are accepted directly, so
            # ``curl -d @worksheet.json`` works without an envelope.
            worksheet = body
        modes = resolve_modes(str(body.get("mode", "both")))
        deadline_s = self._deadline_s(body)
        record, batch_size = await self.batcher.submit(
            worksheet, modes, deadline_s=deadline_s
        )
        return json_response({
            "name": str(worksheet.get("name", "")),
            "predictions": record,
            "batch_size": batch_size,
        })

    async def _batch(self, request: Request) -> Response:
        body = _require_object(request.json(), "request body")
        worksheets = body.get("worksheets")
        if not isinstance(worksheets, list) or not worksheets:
            raise ParameterError(
                "request body must carry a non-empty 'worksheets' array"
            )
        if len(worksheets) > self.max_batch_rows:
            raise LimitError(
                f"batch of {len(worksheets)} rows exceeds the "
                f"{self.max_batch_rows}-row limit"
            )
        modes = resolve_modes(str(body.get("mode", "both")))
        results: list[dict[str, object] | None] = [None] * len(worksheets)
        rows: list[tuple[float, ...]] = []
        row_owner: list[int] = []
        for i, item in enumerate(worksheets):
            try:
                rows.append(worksheet_row(_require_object(item, f"row {i}")))
                row_owner.append(i)
            except ParameterError as exc:
                results[i] = {"ok": False, "error": str(exc)}
        evaluated = 0
        if rows:
            evaluated = self._evaluate_rows(
                worksheets, results, rows, row_owner, modes
            )
            if len(rows) > self.batcher.max_batch_size:
                # Encoding a long array costs about what decoding and
                # evaluating it did (4,096 rows: ~45 and ~25 ms), so poll
                # in between: the loop then stalls for the longer phase,
                # not for their sum.  An array no longer than a
                # micro-batch skips the poll, which would only queue it
                # behind other connections' work.
                await _poll_loop()
        return json_response({
            "rows": len(worksheets),
            "evaluated": evaluated,
            "failed": len(worksheets) - evaluated,
            "results": results,
        })

    def _evaluate_rows(
        self,
        worksheets: list[object],
        results: list[dict[str, object] | None],
        rows: list[tuple[float, ...]],
        row_owner: list[int],
        modes: tuple[BufferingMode, ...],
    ) -> int:
        """Evaluate the staged rows into ``results``; count the valid.

        Runs on the event loop, through the batcher's one evaluation
        path, so the batcher's plan stays on one thread.
        """
        outcomes = self.batcher.evaluate(
            rows, [worksheets[i] for i in row_owner], [modes] * len(rows)
        )
        evaluated = 0
        for owner, outcome in zip(row_owner, outcomes):
            if isinstance(outcome, ParameterError):
                results[owner] = {"ok": False, "error": str(outcome)}
            else:
                results[owner] = {"ok": True, "predictions": outcome}
                evaluated += 1
        return evaluated

    async def _explore(self, request: Request) -> Response:
        from ..explore import DesignSpace, explore

        body = _require_object(request.json(), "request body")
        if "study" in body:
            base = get_case_study(str(body["study"])).rat
        elif "worksheet" in body:
            base = RATInput.from_dict(
                _require_object(body["worksheet"], "'worksheet'")
            )
        else:
            raise ParameterError(
                "request body must name a 'study' or carry a 'worksheet'"
            )
        axes_raw = _require_object(body.get("axes", {}), "'axes'")
        axes = {
            str(name): _axis_values(str(name), spec, self.max_explore_points)
            for name, spec in axes_raw.items()
        }
        points = math.prod(len(values) for values in axes.values())
        if points > self.max_explore_points:
            raise LimitError(
                f"sweep of {points} points exceeds the "
                f"{self.max_explore_points}-point limit"
            )
        mode = _buffering_mode(str(body.get("mode", "single")))
        on_error = str(body.get("on_error", "fail"))
        raw_top = body.get("top", _EXPLORE_TOP_DEFAULT)
        try:
            top = int(raw_top)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(f"non-numeric top: {raw_top!r}") from exc
        space = DesignSpace.grid(base, **axes)
        result = await asyncio.to_thread(
            explore, space, mode, on_error=on_error
        )
        return json_response({
            "name": base.name,
            "mode": mode.value,
            "axes": axes,
            "points": len(result),
            "elapsed_s": result.elapsed_s,
            "points_per_sec": result.points_per_sec,
            "failed_points": result.n_failed,
            "failures": [f.describe() for f in result.failures],
            "predictions": result.ranked(top),
        })

    # ---- helpers -----------------------------------------------------------

    def _deadline_s(self, body: Mapping[str, object]) -> float | None:
        raw = body.get("deadline_ms")
        if raw is None:
            return self.default_deadline_s
        try:
            deadline_s = float(raw) * 1e-3
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"non-numeric deadline_ms: {raw!r}") from exc
        if deadline_s <= 0:
            raise ParameterError(f"deadline_ms must be > 0, got {raw!r}")
        return deadline_s


async def _poll_loop() -> None:
    """Let the loop poll its sockets and timers, and run the tasks that
    poll wakes, before the caller resumes.

    A task the poll wakes runs one loop step after it, so the caller
    resumes a step later still; after ``asyncio.sleep(0)`` it would
    resume ahead of them.
    """
    loop = asyncio.get_running_loop()
    polled = loop.create_future()
    loop.call_soon(loop.call_soon, polled.set_result, None)
    await polled


def _buffering_mode(value: str) -> BufferingMode:
    try:
        return BufferingMode(value)
    except ValueError:
        raise ParameterError(
            f"mode must be one of ['double', 'single'], got {value!r}"
        ) from None


def _axis_values(name: str, spec: object, max_points: int) -> list[float]:
    """Decode one axis: an explicit list or a lo/hi/count range object.

    A range longer than ``max_points`` is refused before it is built:
    its sweep could only exceed the limit.
    """
    from ..explore import axis_range

    if isinstance(spec, list):
        if not spec:
            raise ParameterError(f"axis {name!r} must not be empty")
        try:
            return [float(v) for v in spec]
        except (TypeError, ValueError) as exc:
            raise ParameterError(
                f"axis {name!r} has a non-numeric value"
            ) from exc
    if isinstance(spec, Mapping):
        try:
            low = float(spec["lo"])
            high = float(spec["hi"])
            count = int(spec["count"])
        except KeyError as exc:
            raise ParameterError(
                f"axis {name!r} range needs 'lo', 'hi', and 'count'"
            ) from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(
                f"axis {name!r} has a non-numeric bound"
            ) from exc
        if count > max_points:
            raise LimitError(
                f"axis {name!r} of {count} points exceeds the "
                f"{max_points}-point limit"
            )
        return axis_range(name, low, high, count)
    raise ParameterError(
        f"axis {name!r} must be a value list or a lo/hi/count object"
    )
