"""Chunked execution of design-space explorations.

:func:`explore` is the throughput-prediction fast path: it converts a
:class:`~repro.explore.space.DesignSpace` to one struct-of-arrays batch,
allocates the call's eight result columns once, and splits the batch
into fixed-size chunks.  Each chunk runs the Eq (1)-(11) kernel
in-process, straight into its slice of those columns, so results are
neither copied out per chunk nor concatenated.  A clean grid's chunks
run the same equations folded onto its axes
(:class:`~repro.core.batch.GridKernel`).  It has no process pool:
pickling a chunk's rows to a worker and its results back costs far more
than the kernel spends on them (``docs/performance.md``, "Why explore()
has no process pool").

:func:`map_designs` is the escape hatch for evaluators the batch engine
cannot vectorize — event-driven hardware simulation, goal-seek solvers,
resource estimation — fanning an arbitrary picklable callable over every
design, in-process or across one process pool, through
:func:`~repro.explore.runtime.run_chunks`.

Failure handling (see :mod:`repro.explore.runtime`):

* ``on_error="fail"`` (default) preserves the historical behaviour — the
  first invalid design (:func:`explore`) or failed chunk
  (:func:`map_designs`) raises.  In :func:`explore`, ``"quarantine"``
  validates every row up front, evaluates every row in place, writes
  NaN into the failed ones, and reports structured
  :class:`PointFailure` diagnostics on the result; ``"skip"`` drops
  the failed rows instead, evaluating a compacted copy of the valid
  ones, with ``ExplorationResult.indices`` mapping surviving rows back
  to their design-space indices.  :func:`map_designs` fails whole
  chunks (:class:`ChunkFailure`) and keeps them as ``None`` or drops
  them.
  :func:`explore`'s kernel cannot raise on the rows validation let
  through, so an exception from it propagates.
* A :func:`map_designs` pool worker that dies raises
  :class:`~repro.errors.ExplorationError` under every policy, with the
  chunks completed so far in its ``partial``.
* ``checkpoint=PATH`` journals each completed chunk to a JSONL file;
  ``resume=True`` replays completed chunks from a previous interrupted
  run (bitwise-identical results — see
  :mod:`repro.explore.checkpoint`).

Observability: each call runs under an ``explore.run`` (or
``explore.map_designs``) span, and every chunk records an
``explore.chunk`` span.  A chunk evaluated in the calling process
(every :func:`explore` chunk; a :func:`map_designs` chunk run without a
pool) has a span that encloses its work.  A :func:`map_designs` chunk
evaluated in a pool worker returns its elapsed time and the parent
re-emits a synthetic span carrying it (``synthetic: True``), so pool
runs are not blind.  ``explore.points`` counts evaluated designs,
``explore.chunk_seconds`` aggregates per-chunk latency,
``explore.failed_points`` / ``explore.failed_chunks`` /
``explore.resumed_chunks`` track failure handling, and the
``explore.predictions_per_sec`` gauge tracks realised throughput.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

import numpy as np

from ..core.batch import (
    _RESULT_COLUMNS,
    BatchInput,
    BatchPrediction,
    GridKernel,
    _predict_into,
    mark_rows_valid,
)
from ..core.buffering import BufferingMode
from ..core.params import RATInput
from ..core.throughput import ThroughputPrediction
from ..errors import ExplorationError, ParameterError
from ..obs import NOOP_SPAN, get_metrics, get_tracer
from .checkpoint import ChunkJournal, run_key
from .runtime import (
    ChunkFailure,
    PointFailure,
    check_on_error,
    quarantine_rows,
    run_chunks,
)
from .space import DesignSpace

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ExplorationResult",
    "MapResult",
    "explore",
    "map_designs",
]

#: Default points per chunk: large enough to amortise numpy dispatch,
#: small enough to keep per-chunk spans and checkpoint records meaningful.
DEFAULT_CHUNK_SIZE = 65536

#: Floor applied to measured wall-clock before computing throughput:
#: sub-resolution runs (a tiny space on a fast machine) clamp to the
#: timer's resolution instead of dropping the sample entirely.
_MIN_ELAPSED_S = time.get_clock_info("perf_counter").resolution or 1e-9

@dataclass(frozen=True, eq=False)
class ExplorationResult:
    """Predictions for every point of one explored design space.

    With ``on_error="quarantine"`` the prediction keeps one row per
    design point, NaN-filled where the point failed; with ``"skip"``
    failed rows are dropped and ``indices`` maps prediction row ``i``
    back to design ``indices[i]`` of ``space``.  ``failures`` holds
    row-level validation diagnoses.
    """

    space: DesignSpace
    mode: BufferingMode
    prediction: BatchPrediction
    elapsed_s: float
    failures: tuple[PointFailure, ...] = ()
    # Always empty: explore() fails no chunk.  Kept because the
    # repository benchmark's output check (ratbench/inputs.py,
    # check_explore) still reads it.
    chunk_failures: tuple[ChunkFailure, ...] = ()
    indices: np.ndarray | None = None
    resumed_chunks: int = 0

    def __len__(self) -> int:
        return len(self.prediction)

    @property
    def points_per_sec(self) -> float:
        """Realised evaluation throughput of this run.

        Clamped to the wall-clock timer's resolution, so a run faster
        than one timer tick reports a (conservative) finite rate rather
        than zero.
        """
        return len(self) / max(self.elapsed_s, _MIN_ELAPSED_S)

    @property
    def n_failed(self) -> int:
        """Design points that produced no prediction."""
        return len(self.failures)

    def design_index(self, i: int) -> int:
        """Design-space index of prediction row ``i``."""
        return int(self.indices[i]) if self.indices is not None else i

    def best(self) -> tuple[dict[str, float], ThroughputPrediction]:
        """The axis values and prediction with the highest speedup."""
        i = self.prediction.argbest()
        return self.space.point(self.design_index(i)), self.prediction.row(i)

    def as_records(self) -> list[dict[str, float]]:
        """One flat dict per prediction row: axis values + fields."""
        records = self.prediction.as_records()
        for i, record in enumerate(records):
            record.update(self.space.point(self.design_index(i)))
        return records

    def ranked(self, top: int = 0) -> list[dict[str, float]]:
        """:meth:`as_records` by speedup, best first, cut to ``top`` if
        ``top > 0``.  Quarantined (NaN) rows are left out, since NaN
        compares false to everything; ``failures`` reports them."""
        records = [r for r in self.as_records() if r["speedup"] == r["speedup"]]
        records.sort(key=lambda r: -r["speedup"])
        return records[:top] if top > 0 else records


@dataclass(frozen=True, eq=False)
class MapResult:
    """Detailed outcome of one :func:`map_designs` run.

    ``results[i]`` is the evaluator's value for design ``indices[i]``;
    with ``on_error="quarantine"`` failed designs are present as
    ``None``, with ``"skip"`` they are dropped.  As the ``partial`` of
    an :class:`~repro.errors.ExplorationError` it holds the chunks that
    completed.
    """

    results: list[Any]
    indices: np.ndarray
    elapsed_s: float
    chunk_failures: tuple[ChunkFailure, ...] = ()
    resumed_chunks: int = 0


def _chunk_bounds(n: int, chunk_size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + chunk_size, n)) for lo in range(0, n, chunk_size)]


def _effective_workers(workers: int) -> int:
    """Resolve the ``workers`` knob: 0 means one worker per CPU core."""
    if workers < 0:
        raise ParameterError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


#: The ``(space, evaluator)`` of the map_designs run this pool worker
#: serves, set once per worker by :func:`_map_worker_init`, so the
#: (potentially large) design space pickles into each worker at pool
#: start instead of into every task.  The calling process never sets it:
#: an in-process run passes both to :func:`_map_chunk`.
_worker_run: tuple[DesignSpace, Callable] | None = None


def _map_worker_init(space: DesignSpace, evaluator: Callable) -> None:
    global _worker_run
    _worker_run = (space, evaluator)


def _map_chunk(
    task: tuple[int, int, int],
    space: DesignSpace | None = None,
    evaluator: Callable | None = None,
) -> tuple[float, list[Any], bool]:
    """map_designs chunk ``index``: evaluate designs ``lo..hi`` of its run.

    Returns ``(elapsed_s, results, spanned)``.  In the calling process,
    which passes ``space`` and ``evaluator``, the ``explore.chunk`` span
    encloses the evaluator work (a failed chunk's span carries the
    error).  A pool worker reads them from its initializer's state; its
    spans cannot reach the parent's tracer, so it returns
    ``spanned=False`` and the parent re-emits a synthetic span.
    """
    in_process = space is not None
    if not in_process:
        assert _worker_run is not None, "worker initializer did not run"
        space, evaluator = _worker_run
    index, lo, hi = task
    span = (
        get_tracer().span(
            "explore.chunk", {"chunk": index, "size": hi - lo}, "explore"
        )
        if in_process
        else NOOP_SPAN
    )
    with span:
        started = time.perf_counter()
        results = [evaluator(space.design(i)) for i in range(lo, hi)]
        elapsed = time.perf_counter() - started
        span.set_attribute("elapsed_s", elapsed)
    return elapsed, results, in_process


def _open_journal(
    checkpoint: str | os.PathLike | None,
    resume: bool,
    key_fn: Callable[[], str],
    n_chunks: int,
) -> tuple[ChunkJournal | None, dict[int, Any]]:
    """Set up the chunk journal (if requested) and load resumable work.

    Returns the journal and ``{chunk_index: payload}`` for this run's
    chunks that a previous run already completed; their count feeds
    ``explore.resumed_chunks``.
    """
    if not checkpoint:
        if resume:
            raise ParameterError("resume=True requires a checkpoint path")
        return None, {}
    journal = ChunkJournal(checkpoint, key_fn())
    completed: dict[int, Any] = {}
    if resume:
        completed = journal.load()
        journal.open(fresh=not completed)
    else:
        journal.open(fresh=True)
    done = {
        index: record["payload"]
        for index, record in completed.items()
        if 0 <= index < n_chunks
    }
    if done:
        get_metrics().counter("explore.resumed_chunks").inc(len(done))
    return journal, done


def explore(
    space: DesignSpace,
    mode: BufferingMode = BufferingMode.SINGLE,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    on_error: str = "fail",
    checkpoint: str | os.PathLike | None = None,
    resume: bool = False,
) -> ExplorationResult:
    """Predict throughput for every point of ``space`` on the batch engine.

    ``chunk_size`` bounds the rows evaluated per kernel call (and the
    granularity of checkpoint records and ``explore.chunk`` spans).
    ``on_error`` picks the invalid-design policy
    (``"fail"``/``"skip"``/``"quarantine"``, see the module docstring)
    and ``checkpoint``/``resume`` the crash-recovery journal.

    Under ``"quarantine"`` the kernel evaluates every row in the chunks
    ``"fail"`` uses and writes NaN into each chunk's failed rows before
    the chunk is recorded or journaled; under ``"skip"`` the chunks
    cover a compacted copy of the valid rows.

    A :meth:`DesignSpace.grid` whose every axis value passes the
    validation rules is evaluated folded, under every policy: the rules
    run once per axis value (:meth:`DesignSpace.grid_columns`), and
    :class:`~repro.core.batch.GridKernel` evaluates Equations (1)-(4)
    once per axis value and Equations (5)-(11) per row.  Its results,
    chunks, spans and journals are bit for bit those of the row path,
    which every other space, and a grid with a bad axis value, takes.
    """
    if chunk_size < 1:
        raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    check_on_error(on_error)
    n = len(space)
    tracer = get_tracer()
    metrics = get_metrics()
    started = time.perf_counter()
    journal: ChunkJournal | None = None
    try:
        with tracer.span(
            "explore.run",
            {"points": n, "chunk_size": chunk_size, "mode": mode.value,
             "on_error": on_error},
            "explore",
        ):
            point_failures: tuple[PointFailure, ...] = ()
            valid_indices: np.ndarray | None = None
            # Quarantine: the rows the rule pass rejected, in order.
            failed: np.ndarray | None = None
            grid = space.grid_columns()
            kernel = None
            if grid is not None:
                # Every axis value passed the rules, so every design does.
                batch = mark_rows_valid(space.to_batch(check=False))
                kernel = GridKernel(space.base, grid)
                if on_error == "skip":
                    valid_indices = np.arange(n)
            else:
                batch = space.to_batch(check=(on_error == "fail"))
                if on_error != "fail":
                    rows, point_failures = quarantine_rows(batch, space)
                    if on_error == "skip":
                        valid_indices = np.delete(np.arange(n), rows)
                    # quarantine_rows just vetted every row.  Only a
                    # batch with no invalid row left is marked valid;
                    # quarantine hands the kernel its failed rows.
                    if not point_failures:
                        mark_rows_valid(batch)
                    elif on_error == "skip":
                        batch = mark_rows_valid(
                            batch.take(valid_indices, check=False)
                        )
                    else:
                        failed = rows
            m = len(batch)
            bounds = _chunk_bounds(m, chunk_size)
            columns = tuple(np.empty(m) for _ in _RESULT_COLUMNS)
            journal, done = _open_journal(
                checkpoint, resume,
                lambda: run_key(space, mode, chunk_size, on_error),
                len(bounds),
            )
            chunk_seconds = metrics.histogram("explore.chunk_seconds")
            for index, (lo, hi) in enumerate(bounds):
                views = [column[lo:hi] for column in columns]
                if index in done:
                    for view, part in zip(views, done[index]):
                        view[...] = part
                    continue
                with tracer.span(
                    "explore.chunk", {"chunk": index, "size": hi - lo},
                    "explore",
                ) as span:
                    chunk_started = time.perf_counter()
                    if kernel is not None:
                        kernel.predict_into(lo, hi, mode, views)
                    elif failed is None:
                        _predict_into(batch[lo:hi], mode, views)
                    else:
                        # The kernel NaNs the chunk's failed rows before
                        # the chunk is recorded or journaled.
                        a, b = np.searchsorted(failed, (lo, hi))
                        _predict_into(
                            batch[lo:hi], mode, views, failed[a:b] - lo
                        )
                    elapsed = time.perf_counter() - chunk_started
                    span.set_attribute("elapsed_s", elapsed)
                chunk_seconds.observe(elapsed)
                if journal is not None:
                    journal.append(index, {
                        "elapsed": elapsed,
                        "payload": [view.tolist() for view in views],
                    })
            # Under skip, row i is design valid_indices[i] of the space.
            prediction = BatchPrediction(batch, mode, *columns)
            if point_failures:
                metrics.counter("explore.failed_points").inc(
                    len(point_failures)
                )
    finally:
        if journal is not None:
            journal.close()
    elapsed = time.perf_counter() - started
    metrics.counter("explore.points").inc(n)
    metrics.gauge("explore.predictions_per_sec").set(
        n / max(elapsed, _MIN_ELAPSED_S)
    )
    return ExplorationResult(
        space=space,
        mode=mode,
        prediction=prediction,
        elapsed_s=elapsed,
        failures=point_failures,
        indices=valid_indices if on_error == "skip" else None,
        resumed_chunks=len(done),
    )


def map_designs(
    space: DesignSpace,
    evaluator: Callable[[RATInput], Any],
    *,
    workers: int = 1,
    chunk_size: int = 16,
    on_error: str = "fail",
    checkpoint: str | os.PathLike | None = None,
    resume: bool = False,
    detail: bool = False,
) -> list[Any] | MapResult:
    """Fan a non-vectorizable evaluator over every design in ``space``.

    For work the batch engine cannot express — event-driven hardware
    simulation, goal-seek, resource estimation — ``evaluator`` receives
    each scalar :class:`RATInput` and its results are returned in design
    order.  With ``workers > 1`` (or ``workers=0`` for one per CPU core)
    the chunks run on a process pool, and the evaluator must be
    picklable (a module-level function), as must its results;
    ``chunk_size`` is the pool's task granularity.

    Failures are chunk-granular: under ``on_error="fail"`` an evaluator
    exception raises :class:`~repro.errors.ExplorationError`; with
    ``"quarantine"`` the failed chunk's entries are ``None``, with
    ``"skip"`` they are dropped.  A pool worker that dies raises
    ``ExplorationError`` under every policy, its ``partial`` a
    :class:`MapResult` of the chunks completed so far; with
    ``checkpoint`` (JSON-serializable results), ``resume=True`` then
    evaluates only the rest.  ``detail=True`` returns a
    :class:`MapResult` carrying the failure records and the surviving
    design indices instead of the bare list.
    """
    check_on_error(on_error)
    pool_workers = _effective_workers(workers)
    if chunk_size < 1:
        raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    n = len(space)
    tracer = get_tracer()
    metrics = get_metrics()
    started = time.perf_counter()
    journal: ChunkJournal | None = None
    try:
        with tracer.span(
            "explore.map_designs",
            {"points": n, "workers": pool_workers, "on_error": on_error},
            "explore",
        ):
            bounds = _chunk_bounds(n, chunk_size)
            evaluator_id = getattr(evaluator, "__qualname__", repr(evaluator))
            journal, slots = _open_journal(
                checkpoint, resume,
                lambda: run_key(
                    space, BufferingMode.SINGLE, chunk_size, on_error,
                    evaluator=evaluator_id,
                ),
                len(bounds),
            )
            resumed = len(slots)
            todo = [i for i in range(len(bounds)) if i not in slots]
            chunk_seconds = metrics.histogram("explore.chunk_seconds")

            def on_result(
                position: int, result: tuple[float, list, bool]
            ) -> None:
                index = todo[position]
                elapsed, values, spanned = result
                lo, hi = bounds[index]
                if not spanned:
                    # Re-emitted for a pool chunk: the span lasts ~0,
                    # elapsed_s holds the chunk's real timing.
                    with tracer.span("explore.chunk", {
                        "chunk": index, "size": hi - lo,
                        "elapsed_s": elapsed, "synthetic": True,
                    }, "explore"):
                        pass
                chunk_seconds.observe(elapsed)
                slots[index] = values
                if journal is not None:
                    journal.append(
                        index, {"elapsed": elapsed, "payload": values}
                    )

            def remap(
                failures: Sequence[ChunkFailure],
            ) -> tuple[ChunkFailure, ...]:
                """Task positions -> chunk indices + bounds; span each."""
                remapped = []
                for failure in failures:
                    index = todo[failure.index]
                    lo, hi = bounds[index]
                    remapped.append(
                        replace(failure, index=index, lo=lo, hi=hi)
                    )
                    with tracer.span("explore.chunk", {
                        "chunk": index, "size": hi - lo,
                        "error": failure.reason,
                        "error_type": failure.error_type,
                    }, "explore"):
                        pass
                return tuple(remapped)

            def outcome(
                chunk_failures: tuple[ChunkFailure, ...], fill: bool
            ) -> MapResult:
                """Chunks in design order; ``fill`` keeps failed ones."""
                results: list[Any] = []
                indices: list[int] = []
                for i, (lo, hi) in enumerate(bounds):
                    if i in slots or fill:
                        results.extend(
                            slots[i] if i in slots else [None] * (hi - lo)
                        )
                        indices.extend(range(lo, hi))
                return MapResult(
                    results=results,
                    indices=np.asarray(indices, dtype=np.intp),
                    elapsed_s=time.perf_counter() - started,
                    chunk_failures=chunk_failures,
                    resumed_chunks=resumed,
                )

            try:
                _, failures = run_chunks(
                    [(i, *bounds[i]) for i in todo], _map_chunk,
                    workers=pool_workers, on_error=on_error,
                    on_result=on_result,
                    initializer=_map_worker_init, initargs=(space, evaluator),
                )
            except ExplorationError as exc:
                chunk_failures = remap(exc.chunk_failures)
                raise ExplorationError(
                    str(exc), chunk_failures=chunk_failures,
                    partial=outcome(chunk_failures, fill=False),
                ) from exc
            result = outcome(remap(failures), on_error == "quarantine")
            if result.chunk_failures:
                metrics.counter("explore.failed_points").inc(
                    sum(f.hi - f.lo for f in result.chunk_failures)
                )
    finally:
        if journal is not None:
            journal.close()
    metrics.counter("explore.points").inc(n)
    metrics.gauge("explore.predictions_per_sec").set(
        n / max(result.elapsed_s, _MIN_ELAPSED_S)
    )
    return result if detail else result.results
