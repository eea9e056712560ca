"""Micro-batching: coalesce concurrent predictions onto the batch engine.

A prediction service built naively on :func:`repro.core.throughput
.predict` pays the scalar path's per-worksheet overhead on every
request.  PR 2's batch engine evaluates a million rows per call — but
only helps if concurrent requests actually share a call.  The
:class:`MicroBatcher` is that bridge: single-prediction requests are
appended to a pending queue, and a consumer task evaluates whatever is
queued each time it wakes, up to ``max_batch_size`` rows.  No timer
holds a request back: the requests that arrive while one batch runs
form the next, so arrival overlaps evaluation the way Eq (6) overlaps
communication with computation, and N concurrent callers pay ~one
batch's worth of numpy dispatch and validation instead of N.

Each batcher compiles one :class:`~repro.core.plan.PredictionPlan` at
construction, pre-sized to ``max_batch_size``.
:meth:`MicroBatcher.evaluate` is the service's one
evaluate-and-distribute path: the coalesced batches of ``/v1/predict``
and the row arrays of ``/v1/batch`` both run through it, and through
that plan.  Rows are
triaged once by ``row_violations``, the surviving batch is marked valid
instead of re-validated, and the ``plan.compiles`` counter stays flat
under load.

Correctness contracts:

* **Bitwise parity.**  A prediction served through a coalesced batch is
  IEEE-754-identical to what scalar ``predict()`` returns for the same
  worksheet — inherited from the batch kernel's operation-order
  guarantee, preserved here by staging each worksheet with
  :func:`~repro.core.params.worksheet_row`, the function
  :meth:`RATInput.from_dict` stages with.
* **Row-level quarantine.**  One invalid worksheet in a coalesced batch
  fails only that request: rows are staged unvalidated, triaged by one
  :func:`repro.core.batch.row_violations` rule pass (the exploration
  layer's quarantine machinery), and each rejected request receives the
  *byte-identical* diagnostic the scalar ``RATInput.from_dict`` path
  raises for its worksheet.

Admission control: the pending queue is bounded (``max_pending``);
over-capacity submissions raise :class:`~repro.errors.AdmissionError`
carrying a ``Retry-After`` estimate derived from the queue depth and an
EWMA of recent batch latency.  Requests may carry a deadline; ones that
expire while queued are failed with
:class:`~repro.errors.DeadlineError` instead of being evaluated.

Observability: ``serve.queue_depth`` (gauge) tracks the pending queue,
``serve.batch_size`` / ``serve.batch_seconds`` / ``serve.batch_wait_seconds``
(histograms) the coalescing behaviour, ``serve.predictions`` (rows
evaluated) / ``serve.quarantined`` (rows rejected) on both routes and
``serve.deadline_expired`` (counters) the row outcomes, and each
executed batch records a ``serve.batch`` span.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..core.batch import (
    _RESULT_COLUMNS,
    BatchInput,
    mark_rows_valid,
    row_violations,
)
from ..core.buffering import BufferingMode
from ..core.plan import PredictionPlan
from ..core.params import RATInput, worksheet_row
from ..errors import AdmissionError, DeadlineError, ParameterError, ServeError
from ..obs import get_metrics, get_tracer
from ..obs.log import event, get_logger
from ..obs.propagation import current_context

__all__ = [
    "MicroBatcher",
    "PredictionModes",
    "resolve_modes",
    "scalar_diagnostic",
    "worksheet_row",
]

_log = get_logger("serve.batcher")

#: A request's buffering-mode selection: one or both of SINGLE/DOUBLE.
PredictionModes = tuple[BufferingMode, ...]

#: ``mode`` request values -> the BufferingModes to evaluate.  The
#: default ``"both"`` returns the full Equations (1)-(11) result: Eq (5)
#: vs (6) execution times and the per-mode Eq (8)-(11) utilizations.
_MODES: dict[str, PredictionModes] = {
    "single": (BufferingMode.SINGLE,),
    "double": (BufferingMode.DOUBLE,),
    "both": (BufferingMode.SINGLE, BufferingMode.DOUBLE),
}


def resolve_modes(mode: str) -> PredictionModes:
    """Map a request's ``mode`` string to the modes to evaluate."""
    try:
        return _MODES[mode]
    except KeyError:
        raise ParameterError(
            f"mode must be one of {sorted(_MODES)}, got {mode!r}"
        ) from None


def scalar_diagnostic(worksheet: Mapping[str, object], fallback: str) -> str:
    """The error message the *scalar* path raises for a bad worksheet.

    Quarantined rows must report byte-identical text to what
    ``RATInput.from_dict`` + ``predict()`` would have raised, so the
    diagnosis is re-derived by running the scalar constructor itself.
    ``fallback`` (the batch-level :class:`RowViolation` message, same
    rule set) covers the defensive case where the scalar path somehow
    accepts the row.
    """
    try:
        RATInput.from_dict(worksheet)
    except ParameterError as exc:
        return str(exc)
    return fallback


@dataclass(eq=False)
class _Pending:
    """One queued prediction request awaiting a batch slot."""

    __slots__ = (
        "row", "worksheet", "modes", "future", "enqueued", "deadline",
        "trace_id",
    )

    row: tuple[float, ...]
    worksheet: Mapping[str, object]
    modes: PredictionModes
    future: asyncio.Future
    enqueued: float
    deadline: float | None  # absolute perf_counter() time, or None
    trace_id: str  # submitting request's trace identity ("" if untraced)


class MicroBatcher:
    """Coalesce concurrent single predictions into batch-engine calls.

    Each time the consumer wakes it takes up to ``max_batch_size``
    queued requests as one batch; nothing waits for company, so a lone
    request is evaluated at once and, under load, the requests queued
    while a batch ran make the next one.  ``max_pending`` is the
    admission bound; beyond it, :meth:`submit` raises
    :class:`AdmissionError` (HTTP 429).  ``batches`` and ``served``
    count the batches and rows :meth:`evaluate` evaluated, on both
    routes (``served`` is ``serve.predictions``).
    """

    def __init__(
        self,
        *,
        max_batch_size: int = 64,
        max_pending: int = 1024,
    ) -> None:
        if max_batch_size < 1:
            raise ParameterError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if max_pending < 1:
            raise ParameterError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        self.max_batch_size = max_batch_size
        self.max_pending = max_pending
        self._pending: deque[_Pending] = deque()
        self._wakeup = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._closed = False
        self._batch_seconds_ewma = 1e-3
        self.batches = 0
        self.served = 0
        # One compiled plan per batcher, pre-sized to the batch window:
        # every coalesced batch reuses its buffers, so the steady-state
        # request path allocates nothing and plan.compiles stays flat.
        self._plan = PredictionPlan(capacity=max_batch_size)
        # Hot-path instruments, resolved once: registry lookups are
        # cheap but run per request, and instruments are stable.
        metrics = get_metrics()
        self._queue_depth = metrics.gauge("serve.queue_depth")
        self._batch_size_hist = metrics.histogram("serve.batch_size")
        self._batch_seconds_hist = metrics.histogram("serve.batch_seconds")
        self._batch_wait_hist = metrics.histogram("serve.batch_wait_seconds")
        self._predictions_total = metrics.counter("serve.predictions")
        self._quarantined_total = metrics.counter("serve.quarantined")

    # ---- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the consumer task; requires a running event loop."""
        if self._task is not None:
            return
        self._closed = False
        self._task = asyncio.create_task(self._consume(), name="microbatch")

    async def close(self, *, drain: bool = True) -> None:
        """Stop the consumer; optionally serve what is already queued.

        With ``drain=True`` (graceful shutdown) the consumer finishes
        every queued request before exiting; with ``drain=False`` queued
        requests fail with a 503-mapped :class:`ServeError`.
        """
        self._closed = True
        if not drain:
            while self._pending:
                pending = self._pending.popleft()
                if not pending.future.done():
                    pending.future.set_exception(
                        ServeError("service is shutting down")
                    )
        self._wakeup.set()
        if self._task is not None:
            await self._task
            self._task = None
        self._depth_gauge()

    @property
    def depth(self) -> int:
        """Requests currently waiting for a batch slot."""
        return len(self._pending)

    @property
    def running(self) -> bool:
        """Whether the consumer task is active."""
        return self._task is not None and not self._closed

    @property
    def batch_seconds_ewma(self) -> float:
        """Smoothed recent batch latency (seconds).

        The figure behind ``Retry-After`` estimates; shards also ship it
        in heartbeats so the supervisor's autoscaler can weigh queue
        depth against how fast this shard is clearing it.
        """
        return self._batch_seconds_ewma

    # ---- submission --------------------------------------------------------

    def retry_after_s(self) -> float:
        """Estimated seconds until queue capacity frees up.

        Queue depth in batches times the EWMA batch latency: the figure
        behind the 429 response's ``Retry-After`` header.
        """
        batches_ahead = max(len(self._pending) / self.max_batch_size, 1.0)
        return batches_ahead * self._batch_seconds_ewma

    async def submit(
        self,
        worksheet: Mapping[str, object],
        modes: PredictionModes = _MODES["both"],
        *,
        deadline_s: float | None = None,
    ) -> tuple[dict[str, dict[str, float]], int]:
        """Queue one worksheet; await its slice of a coalesced batch.

        Returns ``(predictions, batch_size)`` where ``predictions`` maps
        mode value -> the row's Equations (1)-(11) record and
        ``batch_size`` is how many requests shared the batch.  Raises
        :class:`ParameterError` for malformed/invalid worksheets,
        :class:`AdmissionError` when the queue is full, and
        :class:`DeadlineError` when ``deadline_s`` expires first.
        """
        if self._closed or self._task is None:
            raise ServeError("service is shutting down")
        if len(self._pending) >= self.max_pending:
            get_metrics().counter("serve.rejected").inc()
            event(
                _log,
                "batch.rejected",
                pending=len(self._pending),
                retry_after_s=self.retry_after_s(),
                level=logging.WARNING,
            )
            raise AdmissionError(
                f"prediction queue is full ({self.max_pending} pending)",
                retry_after_s=self.retry_after_s(),
            )
        row = worksheet_row(worksheet)
        ctx = current_context()
        now = time.perf_counter()
        pending = _Pending(
            row=row,
            worksheet=worksheet,
            modes=modes,
            future=asyncio.get_running_loop().create_future(),
            enqueued=now,
            deadline=now + deadline_s if deadline_s is not None else None,
            trace_id=ctx.trace_id if ctx is not None else "",
        )
        self._pending.append(pending)
        self._depth_gauge()
        self._wakeup.set()
        record, batch_size, batch_span = await pending.future
        if batch_span >= 0:
            # The serve.batch span lives in the consumer task, outside
            # every request's context; this synthetic zero-length span
            # re-emits the linkage *inside* the request's trace so the
            # exported tree connects request -> its coalesced batch.
            with get_tracer().span(
                "serve.batch_slice",
                {"batch_span": batch_span, "batch_size": batch_size,
                 "synthetic": True},
                "serve",
            ):
                pass
        return record, batch_size

    # ---- consumer ----------------------------------------------------------

    def _depth_gauge(self) -> None:
        self._queue_depth.set(len(self._pending))

    async def _consume(self) -> None:
        while True:
            while not self._pending:
                if self._closed:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
            batch = [
                self._pending.popleft()
                for _ in range(min(self.max_batch_size, len(self._pending)))
            ]
            self._depth_gauge()
            try:
                self._execute(batch)
            except Exception as exc:  # defensive: never kill the loop
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(
                            ServeError(f"batch evaluation failed: {exc}")
                        )

    def _execute(self, batch: list[_Pending]) -> None:
        """Evaluate one coalesced batch and distribute per-row results."""
        started = time.perf_counter()
        live: list[_Pending] = []
        for pending in batch:
            if pending.future.done():
                continue  # caller gave up (disconnect/cancellation)
            if pending.deadline is not None and started > pending.deadline:
                get_metrics().counter("serve.deadline_expired").inc()
                expired_fields = {"queued_s": started - pending.enqueued}
                if pending.trace_id:
                    expired_fields["trace_id"] = pending.trace_id
                event(_log, "batch.deadline_expired", **expired_fields)
                pending.future.set_exception(
                    DeadlineError(
                        "deadline expired after "
                        f"{started - pending.enqueued:.3f}s in queue"
                    )
                )
                continue
            live.append(pending)
        if not live:
            return
        n = len(live)
        attributes: dict[str, object] = {"size": n}
        trace_ids = sorted({p.trace_id for p in live if p.trace_id})
        if trace_ids:
            # The batch span belongs to every coalesced request at once;
            # it lists their trace ids instead of claiming one trace.
            attributes["trace_ids"] = trace_ids
        batch_span = get_tracer().span("serve.batch", attributes, "serve")
        batch_span_id = -1
        with batch_span:
            if batch_span.is_recording:
                batch_span_id = batch_span.span_id
            outcomes = self.evaluate(
                [p.row for p in live],
                [p.worksheet for p in live],
                [p.modes for p in live],
            )
            for pending, outcome in zip(live, outcomes):
                if pending.future.done():
                    continue
                if isinstance(outcome, ParameterError):
                    pending.future.set_exception(outcome)
                else:
                    pending.future.set_result((outcome, n, batch_span_id))
        elapsed = time.perf_counter() - started
        self._batch_seconds_ewma += 0.2 * (elapsed - self._batch_seconds_ewma)
        self._batch_size_hist.observe(n)
        self._batch_seconds_hist.observe(elapsed)
        self._batch_wait_hist.observe(started - batch[0].enqueued)

    def evaluate(
        self,
        rows: Sequence[tuple[float, ...]],
        worksheets: Sequence[Mapping[str, object]],
        modes: Sequence[PredictionModes],
    ) -> list[dict[str, dict[str, float]] | ParameterError]:
        """Evaluate staged rows; return each row's record or its error.

        ``rows[i]`` is :func:`worksheet_row` of ``worksheets[i]``, and
        ``modes[i]`` the modes that row asks for.  Invalid rows fail
        alone: each gets the :class:`ParameterError` whose message is
        the scalar path's diagnostic, byte for byte.  A valid row's
        record maps each of its modes, in request order, to the
        Equations (1)-(11) fields in ``BatchPrediction`` order.

        The service's one evaluation path: ``/v1/predict`` batches and
        ``/v1/batch`` arrays both call it on the event loop's thread,
        so the batcher's plan is never shared between threads.
        ``serve.predictions`` counts the rows evaluated and
        ``serve.quarantined`` the rows rejected.
        """
        n = len(rows)
        outcomes: list = [None] * n
        staged = BatchInput(*np.asarray(rows, dtype=np.float64).T, check=False)
        violations = row_violations(staged)
        keep: Sequence[int] = range(n)
        if violations:
            for violation in violations:
                outcomes[violation.row] = ParameterError(
                    scalar_diagnostic(
                        worksheets[violation.row], violation.message
                    )
                )
            self._quarantined_total.inc(len(violations))
            event(
                _log, "batch.quarantined",
                rows=len(violations), batch_size=n,
            )
            keep = [i for i in range(n) if outcomes[i] is None]
            if keep:
                staged = staged.take(
                    np.asarray(keep, dtype=np.intp), check=False
                )
        if keep:
            # row_violations just vetted every kept row: mark them valid
            # instead of paying a second rule pass per mode.
            mark_rows_valid(staged)
            needed = set().union(*(modes[i] for i in keep))
            mode_rows: dict[BufferingMode, list[dict[str, float]]] = {}
            for mode in sorted(needed, key=lambda m: m.value):
                # The plan's result columns are views into its buffers;
                # one .tolist() per column copies them out (at C speed,
                # not per row) before the next evaluate reuses them.
                prediction = self._plan.evaluate(staged, mode)
                columns = [
                    getattr(prediction, name).tolist()
                    for name in _RESULT_COLUMNS
                ]
                mode_rows[mode] = [
                    dict(zip(_RESULT_COLUMNS, values))
                    for values in zip(*columns)
                ]
            for out_i, i in enumerate(keep):
                outcomes[i] = {
                    mode.value: mode_rows[mode][out_i] for mode in modes[i]
                }
        self.batches += 1
        self.served += len(keep)
        self._predictions_total.inc(len(keep))
        return outcomes
