"""Compiled prediction plans: reusable buffers for the Eq (1)-(11) kernel.

:func:`repro.core.batch.batch_predict` allocates eight fresh result
columns per call, which its caller then owns.  For callers that evaluate
the *same shape of work* thousands of times — serve's micro-batcher,
explore's chunk workers — those allocations are pure waste: at a million
rows each column is 8 MB, and fresh pages cost first-touch faults.

A :class:`PredictionPlan` pays that cost once.  It owns result buffers
pre-sized for a declared ``capacity`` (growable; growth is counted on
``plan.buffer_grows``) and runs the same kernel as ``batch_predict``,
:func:`repro.core.batch._predict_into`, into views of them.  A
steady-state ``evaluate`` call allocates no result columns.
:class:`PlanCache` / :func:`shared_plan` key compiled plans by their base
worksheet so hot consumers reuse them across calls.

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
from collections import OrderedDict

import numpy as np

from ..errors import ParameterError
from ..obs import get_metrics, get_tracer
from .batch import _RESULT_COLUMNS, BatchInput, BatchPrediction, _predict_into
from .buffering import BufferingMode
from .params import RATInput

__all__ = [
    "PlanCache",
    "PredictionPlan",
    "shared_plan",
]


class PredictionPlan:
    """Plan-owned result buffers for the Equations (1)-(11) kernel.

    ``base`` optionally names the worksheet the plan serves (its cache
    key and ``plan.compile`` label); ``capacity`` pre-sizes the result
    buffers (0 defers allocation to the first evaluate).

    Compile once, evaluate many: construction allocates the buffers
    under a ``plan.compile`` span and counts on ``plan.compiles`` — hot
    paths hold plans (or fetch them through a :class:`PlanCache`)
    precisely so that counter stays flat under load.
    """

    def __init__(
        self, base: RATInput | None = None, *, capacity: int = 0
    ) -> None:
        if capacity < 0:
            raise ParameterError(f"capacity must be >= 0, got {capacity}")
        self.base = base
        self.grows = 0
        self.evaluations = 0
        self._lock = threading.Lock()
        with get_tracer().span(
            "plan.compile",
            {
                "capacity": int(capacity),
                "worksheet": base.name if base is not None else "",
            },
            "plan",
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


class PlanCache:
    """A small LRU of compiled plans, keyed by base worksheet.

    The reuse backbone for explore's chunk workers: repeated work
    against the same frozen worksheet compiles exactly once per process.
    Thread-safe; eviction drops the least-recently-fetched plan.
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ParameterError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._plans: OrderedDict[RATInput | None, PredictionPlan] = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, base: RATInput | None = None) -> PredictionPlan:
        """Fetch the cached plan for ``base``, compiling on miss."""
        with self._lock:
            plan = self._plans.get(base)
            if plan is not None:
                self._plans.move_to_end(base)
                return plan
        # Compile outside the lock: construction allocates and traces.
        plan = PredictionPlan(base)
        with self._lock:
            existing = self._plans.get(base)
            if existing is not None:  # lost a compile race: reuse theirs
                self._plans.move_to_end(base)
                return existing
            self._plans[base] = plan
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
        return plan

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()


#: Process-global plan reuse for explore's chunk workers, which have no
#: natural place to hold a plan.  Keyed by worksheet identity, so
#: distinct studies do not thrash one plan's buffers — and sized
#: generously enough that a typical process never evicts.
_SHARED_CACHE = PlanCache(maxsize=16)


def shared_plan(base: RATInput | None = None) -> PredictionPlan:
    """The process-wide cached plan for ``base``.

    Results evaluated through a shared plan are views into shared
    buffers: materialize (or pass ``copy=True``) before the next
    evaluate from the same call site may run.
    """
    return _SHARED_CACHE.get(base)
