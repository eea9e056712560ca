"""Compiled prediction plans: reusable buffers for the Eq (1)-(11) kernel.

:func:`repro.core.batch.batch_predict` allocates eight fresh result
columns per call, which its caller then owns.  For a caller that
evaluates the *same shape of work* thousands of times — serve's
micro-batcher — those allocations are pure waste.

A :class:`PredictionPlan` pays that cost once.  It owns result buffers
pre-sized for a declared ``capacity`` (growable; growth is counted on
``plan.buffer_grows``) and runs the same kernel as ``batch_predict``,
:func:`repro.core.batch._predict_into`, into views of them.  A
steady-state ``evaluate`` call allocates no result columns.

Correctness contract — **bitwise parity**: both buffer policies run one
kernel, whose rows are IEEE-754-identical to scalar ``predict``.
Unchecked (``check=False``) batches are re-validated with the same rule
set and raise the same ``ParameterError`` text, so the quarantine
machinery behaves identically through a plan.

Observability: compilation runs under a ``plan.compile`` span and counts
on ``plan.compiles``; every evaluation records a ``plan.evaluate`` span,
the ``plan.evaluate_seconds`` histogram, and ``plan.evaluates`` /
``plan.points`` counters.  The kernel maintains the
``throughput.predictions`` / ``throughput.speedup`` metrics for both
buffer policies.

Thread safety: ``evaluate`` serializes on an internal lock (numpy
releases the GIL mid-ufunc, so unsynchronized callers could interleave
tile writes).  The returned columns are *views into plan buffers* by
default — valid until the next ``evaluate`` on the same plan.  Callers
that retain results across calls (or share a plan between threads) pass
``copy=True``, which snapshots the columns while still inside the lock.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..errors import ParameterError
from ..obs import get_metrics, get_tracer
from .batch import _RESULT_COLUMNS, BatchInput, BatchPrediction, _predict_into
from .buffering import BufferingMode

__all__ = ["PredictionPlan"]


class PredictionPlan:
    """Plan-owned result buffers for the Equations (1)-(11) kernel.

    ``capacity`` pre-sizes the result buffers (0 defers allocation to
    the first evaluate).

    Compile once, evaluate many: construction allocates the buffers
    under a ``plan.compile`` span and counts on ``plan.compiles`` — hot
    paths hold plans precisely so that counter stays flat under load.
    """

    def __init__(self, *, capacity: int = 0) -> None:
        if capacity < 0:
            raise ParameterError(f"capacity must be >= 0, got {capacity}")
        self.grows = 0
        self.evaluations = 0
        self._lock = threading.Lock()
        with get_tracer().span(
            "plan.compile", {"capacity": int(capacity)}, "plan"
        ):
            self._grow(int(capacity), count=False)
        get_metrics().counter("plan.compiles").inc()

    def _grow(self, capacity: int, *, count: bool = True) -> None:
        """(Re)allocate the result buffers for ``capacity`` rows."""
        self._out = [np.empty(capacity) for _ in _RESULT_COLUMNS]
        self.capacity = capacity
        if count:
            self.grows += 1
            get_metrics().counter("plan.buffer_grows").inc()

    def evaluate(
        self,
        batch: BatchInput,
        mode: BufferingMode = BufferingMode.SINGLE,
        *,
        copy: bool = False,
    ) -> BatchPrediction:
        """Equations (1)-(11) over ``batch`` into the plan's buffers.

        Drop-in for :func:`~repro.core.batch.batch_predict`: the same
        kernel, so the same bits, the same re-validation of unchecked
        batches and the same throughput metrics.  Result columns are
        views into plan buffers unless ``copy=True`` — retain-or-share
        callers must copy (see the module docstring).
        """
        n = len(batch)
        started = time.perf_counter()
        with self._lock:
            if n > self.capacity:
                # Geometric growth: k growing evaluates cost O(log k)
                # allocations.
                self._grow(max(n, self.capacity * 2))
            columns = [column[:n] for column in self._out]
            with get_tracer().span(
                "plan.evaluate", {"points": n, "mode": str(mode)}, "plan"
            ):
                _predict_into(batch, mode, columns)
                if copy:
                    columns = [column.copy() for column in columns]
            self.evaluations += 1
        metrics = get_metrics()
        metrics.counter("plan.evaluates").inc()
        metrics.counter("plan.points").inc(n)
        metrics.histogram("plan.evaluate_seconds").observe(
            time.perf_counter() - started
        )
        return BatchPrediction(batch, mode, *columns)
