"""Failure handling for design-space exploration.

``quarantine_rows``
    Row-level triage: given a deferred-validation
    :class:`~repro.core.batch.BatchInput`, one rule pass finds the rows
    scalar validation would reject and diagnoses each as a structured
    :class:`PointFailure` (same message text as the scalar
    ``ParameterError``).
``run_chunks``
    The dispatcher behind :func:`~repro.explore.executor.map_designs`:
    runs one function over a task list, in-process or on one
    ``ProcessPoolExecutor``.  A task whose function raises fails as a
    :class:`ChunkFailure`: under ``on_error="fail"`` the first one
    raises :class:`~repro.errors.ExplorationError` carrying the results
    so far; under ``"skip"``/``"quarantine"`` it is returned beside the
    results, and the caller drops its rows or keeps them empty.

A pool worker that dies (a segfault, ``os._exit``, the OOM killer)
breaks the pool and raises ``ExplorationError`` under every policy,
after the chunks finished before it are delivered; a journaled run
resumes from its checkpoint.  A task that hangs hangs the call, as it
would in-process.  Every failed task increments
``explore.failed_chunks`` and logs an ``explore.chunk_failed`` event
(:mod:`repro.obs.log`), trace-correlated when a request context is
active.
"""

from __future__ import annotations

import gc
import logging
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

# row_violations is not called here; it stays a module attribute because
# the repository benchmark's tracer wraps it by this name.
from ..core.batch import (
    _ROW_RULES,
    BatchInput,
    row_violations,
    violation_columns,
)
from ..errors import ExplorationError, ParameterError
from ..obs import get_metrics
from ..obs.log import event, get_logger
from .space import DesignSpace

_log = get_logger("explore")

__all__ = [
    "ChunkFailure",
    "ON_ERROR_POLICIES",
    "PointFailure",
    "check_on_error",
    "quarantine_rows",
    "run_chunks",
]

#: Accepted ``on_error`` policy names.
ON_ERROR_POLICIES = ("fail", "skip", "quarantine")


def check_on_error(on_error: str) -> str:
    """Validate an ``on_error`` policy name (shared by all entry points)."""
    if on_error not in ON_ERROR_POLICIES:
        raise ParameterError(
            f"on_error must be one of {ON_ERROR_POLICIES}, got {on_error!r}"
        )
    return on_error


class PointFailure(NamedTuple):
    """One quarantined design point: the row, the axis values, and why.

    ``parameter`` names the offending worksheet column and ``reason`` is
    byte-identical to the ``ParameterError`` message the scalar
    ``predict()`` path raises for the same value.  ``point`` carries the
    design's axis values when the caller knows them (the exploration
    executor fills it from its design space, as :meth:`DesignSpace.point`
    would).

    An immutable record, built in bulk by :func:`quarantine_rows`: a
    tuple subclass is several times cheaper to build than a frozen
    dataclass.  Being a tuple, it compares equal to a plain tuple of
    the same fields.
    """

    index: int
    parameter: str
    value: float
    reason: str
    point: Mapping[str, float] | None = None

    def describe(self) -> str:
        """One-line human-readable diagnosis."""
        where = f"point {self.index}"
        if self.point:
            axes = ", ".join(f"{k}={v:g}" for k, v in self.point.items())
            where = f"{where} ({axes})"
        return f"{where}: {self.reason}"


#: ``PointFailure`` from a 5-tuple of its fields, without the keyword
#: handling of ``PointFailure.__new__``.
_new_record = partial(tuple.__new__, PointFailure)


@dataclass(frozen=True)
class ChunkFailure:
    """One chunk whose evaluator raised.

    ``lo``/``hi`` are the chunk's row bounds in the evaluated batch when
    the caller knows them (-1 otherwise); ``error_type`` is the
    exception class name.
    """

    index: int
    reason: str
    error_type: str
    lo: int = -1
    hi: int = -1

    def describe(self) -> str:
        """One-line human-readable diagnosis."""
        bounds = f" rows [{self.lo}, {self.hi})" if self.lo >= 0 else ""
        return f"chunk {self.index}{bounds}: {self.error_type}: {self.reason}"


def quarantine_rows(
    batch: BatchInput, space: DesignSpace | None = None
) -> tuple[np.ndarray, tuple[PointFailure, ...]]:
    """Find and diagnose the rows of a deferred-validation batch that
    scalar validation would reject.

    One rule pass returns ``(failed_rows, failures)``: the rejected row
    indices, ascending, and one :class:`PointFailure` per rejected row,
    in the same order.  The records are built in one pass over
    the rule pass's columns; each ``reason`` comes from the scalar
    validator's own formatter, byte for byte.  ``space``, the design
    space the batch was staged from, supplies each failure's axis
    values, gathered for all failed rows at once, one axis column at a
    time.
    """
    rows, rules, values = violation_columns(batch)
    if not rows.shape[0]:
        return rows, ()
    rule_ids = rules.tolist()
    bad_values = values.tolist()
    names = [_ROW_RULES[rule][0] for rule in rule_ids]
    reasons = [
        _ROW_RULES[rule][2](name, value)
        for rule, name, value in zip(rule_ids, names, bad_values)
    ]
    points: Iterator[Mapping[str, float] | None] = repeat(None)
    if space is not None:
        # One list per axis, gathered from its contiguous column.
        axis_values = [column[rows].tolist() for column in space.values.T]
        points = map(dict, map(zip, repeat(space.axes), zip(*axis_values)))
    # The records hold no cycles.  Built with the collector paused, they
    # cost one young pass, not ~14 per 5,000, each a step towards a full
    # heap collection (10-15 ms) that then fell in one call in ten.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return rows, tuple(map(
            _new_record, zip(rows.tolist(), names, bad_values, reasons, points)
        ))
    finally:
        if collecting:
            gc.enable()


def run_chunks(
    tasks: Sequence[Any],
    fn: Callable[..., Any],
    *,
    workers: int = 1,
    on_error: str = "fail",
    on_result: Callable[[int, Any], None] | None = None,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
) -> tuple[list[Any], list[ChunkFailure]]:
    """Run ``fn`` over every task, in-process or on one process pool.

    Returns ``(results, failures)``: ``results[i]`` is task ``i``'s
    value, or ``None`` where ``fn`` raised and the task's
    :class:`ChunkFailure` is in ``failures``.  ``on_result`` fires in
    the calling process as each task completes, in completion order on
    the pool.

    In-process (``workers <= 1``, or one task) task ``i`` runs as
    ``fn(tasks[i], *initargs)``.  On the pool, ``initializer(*initargs)``
    seeds each worker once, so heavy shared state pickles once per
    worker, and each task runs as ``fn(task)``.  See the module
    docstring for failure semantics.
    """
    check_on_error(on_error)
    results: list[Any] = [None] * len(tasks)
    failures: list[ChunkFailure] = []

    def settle(index: int, call: Callable[[], Any]) -> None:
        try:
            result = call()
        except Exception as exc:
            failure = ChunkFailure(
                index, str(exc) or type(exc).__name__, type(exc).__name__
            )
            failures.append(failure)
            get_metrics().counter("explore.failed_chunks").inc()
            event(
                _log, "explore.chunk_failed", chunk=index,
                error_type=failure.error_type, error=failure.reason,
                level=logging.WARNING,
            )
            if on_error == "fail":
                raise ExplorationError(
                    f"chunk execution failed: {failure.describe()}",
                    chunk_failures=tuple(failures), partial=results,
                ) from exc
        else:
            results[index] = result
            if on_result is not None:
                on_result(index, result)

    if workers <= 1 or len(tasks) <= 1:
        for index, task in enumerate(tasks):
            settle(index, partial(fn, task, *initargs))
        return results, failures
    died: BrokenProcessPool | None = None
    pool = ProcessPoolExecutor(
        min(workers, len(tasks)), initializer=initializer, initargs=initargs
    )
    try:
        futures = {}
        try:
            for index, task in enumerate(tasks):
                futures[pool.submit(fn, task)] = index
        except BrokenProcessPool as exc:
            died = exc
        # A dead worker fails every unfinished future at once, so the
        # loop drains promptly and keeps each chunk finished before it.
        for future in as_completed(futures):
            if isinstance(future.exception(), BrokenProcessPool):
                died = future.exception()
            else:
                settle(futures[future], future.result)
    finally:
        pool.shutdown(cancel_futures=True)
    if died is not None:
        raise ExplorationError(
            f"chunk execution failed: a pool worker died: {died}",
            chunk_failures=tuple(failures), partial=results,
        ) from died
    return results, failures
