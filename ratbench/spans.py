"""Outside-in spans for the traced run.

:class:`Recorder` installs wrappers around calls into the program's
public functions (module attributes and class methods, patched from
here; no program file changes) and records one span per call: name,
start, end, parent span and operation id.  Spans stay in memory and
are written out when the run ends.  Span names are module-qualified
(``core.plan.evaluate``), so the layer of a span is its name minus the
last part.

:class:`Trace` links the spans of each operation into a tree and
:meth:`Trace.breakdown` turns them into self times
(a span's duration minus the union of its children), which add up,
together with the residual the operation root keeps, to the
operation's duration.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import inspect
import json
import time
from collections import defaultdict

_clock = time.perf_counter

# Span record layout: [name, start, end, parent, op, info].
NAME, START, END, PARENT, OP, INFO = range(6)
ROOT = "op"

#: Every kernel span: the Eq (1)-(11) evaluators.
KERNELS = ("core.plan.evaluate", "core.batch.batch_predict")


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.parent = contextvars.ContextVar("ratbench_parent", default=-1)
        self.op = contextvars.ContextVar("ratbench_op", default=-1)
        self._undo: list[tuple[object, str, object]] = []

    # ---- recording ---------------------------------------------------------

    def open(self, name: str, info: object = None) -> tuple[int, object]:
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.parent.get(), self.op.get(),
                           info])
        token = self.parent.set(sid)
        self.spans[sid][START] = _clock()
        return sid, token

    def close(self, sid: int, token: object) -> None:
        self.spans[sid][END] = _clock()
        self.parent.reset(token)

    # ---- wrappers ----------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str, info=None) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``info(*args, **kwargs)``, when given, is stored with the span.
        """
        raw = inspect.getattr_static(owner, attr)
        func = getattr(owner, attr)
        if inspect.iscoroutinefunction(func):
            async def wrapper(*args, **kwargs):
                sid, token = self.open(
                    name, info(*args, **kwargs) if info else None
                )
                try:
                    return await func(*args, **kwargs)
                finally:
                    self.close(sid, token)
        else:
            def wrapper(*args, **kwargs):
                sid, token = self.open(
                    name, info(*args, **kwargs) if info else None
                )
                try:
                    return func(*args, **kwargs)
                finally:
                    self.close(sid, token)
        functools.update_wrapper(wrapper, func)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def install_core(self) -> None:
        from repro.core.batch import BatchInput
        from repro.core.plan import PredictionPlan

        def evaluate_info(plan, batch, mode=None, *, copy=False):
            streamed = sum(
                name not in batch.broadcast for name in _INPUT_COLUMNS
            )
            return [len(batch), streamed, bool(copy)]

        self.wrap(PredictionPlan, "evaluate", "core.plan.evaluate",
                  evaluate_info)
        self.wrap(PredictionPlan, "__init__", "core.plan.compile")
        self.wrap(BatchInput, "take", "core.batch.take")

    def install_explore(self) -> None:
        import repro.explore
        from repro.explore import executor, runtime, space

        self.install_core()
        self.wrap(repro.explore, "explore", "explore.executor.explore")
        self.wrap(space.DesignSpace, "to_batch", "explore.space.to_batch")
        self.wrap(executor, "quarantine_rows",
                  "explore.runtime.quarantine_rows")
        self.wrap(runtime, "row_violations", "core.batch.row_violations")
        self.wrap(executor, "mark_rows_valid", "core.batch.mark_rows_valid")
        self.wrap(executor, "run_chunks", "explore.runtime.run_chunks")

    def install_serve(self) -> None:
        """Wrap the service's layers, the HTTP server's included.

        The op id of a served request arrives in an ``X-Ratbench-Op``
        header, read when ``parse_head`` returns; the server's later
        calls for that request run in the same connection task and
        inherit it.
        """
        from repro.serve import app, batcher, protocol, server

        self.install_core()
        self.wrap(app.RATApp, "handle", "serve.app.handle")
        self.wrap(app.RATApp, "_evaluate_rows", "serve.app.evaluate_rows")
        self.wrap(asyncio, "to_thread", "serve.app.to_thread")
        self.wrap(protocol.Request, "json", "serve.protocol.json")
        self.wrap(batcher.MicroBatcher, "submit", "serve.batcher.submit",
                  lambda _self, worksheet, *a, **k: id(worksheet))
        self.wrap(batcher.MicroBatcher, "_execute", "serve.batcher.batch",
                  lambda _self, batch: [[id(p.worksheet), p.enqueued]
                                        for p in batch])
        for module in (batcher, app):
            self.wrap(module, "worksheet_row", "serve.batcher.worksheet_row")
            self.wrap(module, "row_violations", "core.batch.row_violations")
            self.wrap(module, "scalar_diagnostic",
                      "serve.batcher.scalar_diagnostic")
        self.wrap(batcher, "mark_rows_valid", "core.batch.mark_rows_valid")
        self.wrap(app, "batch_predict", "core.batch.batch_predict")
        for module in (app, protocol):
            self.wrap(module, "json_response", "serve.protocol.json_response")
        parse_head = server.parse_head

        def traced_parse_head(head):
            sid, token = self.open("serve.protocol.parse_head")
            try:
                parsed = parse_head(head)
            finally:
                self.close(sid, token)
            op = int(parsed[3].get("x-ratbench-op", -1))
            self.spans[sid][OP] = op
            self.op.set(op)  # the connection task's following calls
            return parsed

        server.parse_head = traced_parse_head
        self._undo.append((server, "parse_head", parse_head))
        self.wrap(server, "body_length", "serve.protocol.body_length")
        self.wrap(server, "format_response", "serve.protocol.format_response")

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


_INPUT_COLUMNS = (
    "elements_in", "elements_out", "bytes_per_element", "ideal_bandwidth",
    "alpha_write", "alpha_read", "ops_per_element", "throughput_proc",
    "clock_hz", "t_soft", "n_iterations",
)


# ---- analysis --------------------------------------------------------------


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Trace:
    """Spans of one traced phase, linked into one tree per operation.

    Spans recorded outside any operation (the micro-batcher's consumer
    task) are linked into each member request's tree under its
    ``submit`` span, preceded by a synthetic ``queue_wait`` span from
    the request's enqueue time to the batch's start.
    """

    def __init__(self, spans: list[list], t0: float, t1: float) -> None:
        self.spans = spans
        self.t0, self.t1 = t0, t1
        self.children: dict[int, list[int]] = defaultdict(list)
        self.roots = {
            s[OP]: i for i, s in enumerate(spans)
            if s[NAME] == ROOT and s[START] >= t0 and s[END] <= t1
        }
        for i, s in enumerate(spans):
            if s[NAME] == ROOT or s[END] <= 0.0:
                continue  # unclosed spans belong to no finished op
            parent = s[PARENT]
            if parent < 0 and s[OP] >= 0:
                parent = self.roots.get(s[OP], -1)
            if parent >= 0:
                self.children[parent].append(i)
        self._link_batches()

    def _link_batches(self) -> None:
        members: dict[int, list[tuple[int, float]]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[NAME] == "serve.batcher.batch":
                for wsid, enqueued in s[INFO]:
                    members[wsid].append((i, enqueued))
        for i, s in enumerate(list(self.spans)):
            if s[NAME] != "serve.batcher.submit":
                continue
            for b, enqueued in members.get(s[INFO], ()):
                batch = self.spans[b]
                if batch[START] >= s[START] and batch[END] <= s[END] + 1e-6:
                    wait = ["serve.batcher.queue_wait", enqueued,
                            batch[START], i, s[OP], None]
                    self.spans.append(wait)
                    self.children[i] += [len(self.spans) - 1, b]
                    break

    def ids(self, name: str) -> list[int]:
        """Finished spans called ``name`` inside the timed window."""
        return [
            i for i, s in enumerate(self.spans)
            if s[NAME] == name and s[START] >= self.t0
            and 0.0 < s[END] <= self.t1
        ]

    def named(self, name: str) -> list[list]:
        return [self.spans[i] for i in self.ids(name)]

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.named(name)]

    def self_time(self, i: int) -> float:
        s = self.spans[i]
        kids = [
            (self.spans[c][START], self.spans[c][END])
            for c in self.children.get(i, ())
        ]
        return (s[END] - s[START]) - _union(kids)

    def walk(self, i: int):
        stack = [i]
        while stack:
            j = stack.pop()
            yield j
            stack.extend(self.children.get(j, ()))

    def op_time(self, op: int) -> float:
        root = self.spans[self.roots[op]]
        return root[END] - root[START]

    def op_tree(self, op: int) -> list[int]:
        root = self.roots.get(op)
        return [] if root is None else list(self.walk(root))

    @functools.cached_property
    def breakdown(self) -> tuple[dict[str, float], float, float]:
        """Mean self time per op by span name, mean op time, sum error.

        The root's own self time is reported as ``residual``.  The sum
        error is |sum of self times - op time| over all ops, as a share
        of total op time: zero when every child lies inside its parent.
        """
        totals: dict[str, float] = defaultdict(float)
        op_total = 0.0
        error = 0.0
        for op, root in self.roots.items():
            duration = self.op_time(op)
            op_total += duration
            summed = 0.0
            for j in self.walk(root):
                self_s = self.self_time(j)
                name = self.spans[j][NAME]
                totals["residual" if name == ROOT else name] += self_s
                summed += self_s
            error += abs(summed - duration)
        count = max(len(self.roots), 1)
        means = {name: total / count for name, total in totals.items()}
        return means, op_total / count, error / op_total if op_total else 0.0

    def per_op(self, op: int, names: tuple[str, ...]) -> float:
        """Total inclusive time of spans named ``names`` within one op."""
        return sum(
            self.spans[j][END] - self.spans[j][START]
            for j in self.op_tree(op)
            if self.spans[j][NAME] in names
        )
