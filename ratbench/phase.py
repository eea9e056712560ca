"""What one timed phase of a workload measured, and the metrics from it."""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field

from common import busy_timeline, median, percentile, window_rate
from spans import END, INFO, START, Trace


@dataclass
class Phase:
    """Operations of one phase: timings, outcomes and checks.

    Per-op records are compact arrays, so an in-process workload's own
    bookkeeping adds little to the peak RSS it reports.
    """

    serial: bool  # ops run one after another (explore)
    t0: float = 0.0
    t1: float = 0.0
    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    points: array = field(default_factory=lambda: array("d"))
    keys: array = field(default_factory=lambda: array("q"))  # op ids
    batch: array = field(default_factory=lambda: array("b"))  # /v1/batch
    statuses: Counter = field(default_factory=Counter)
    expected_400: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    failed_points: list[int] = field(default_factory=list)
    rss_mb: float = 0.0
    faults_per_op: float = 0.0  # minor page faults (in-process only)
    allocator: str = "default"  # "retained": glibc keeps freed memory
    trace: Trace | None = None

    def record(self, start: float, end: float, points: int, ok: bool,
               route: str = "", key: int = -1) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.starts.append(start)
        self.ends.append(end)
        self.points.append(points if ok else 0)
        self.keys.append(key)
        self.batch.append(route == "batch")

    def problem(self, text: str) -> None:
        if len(self.problems) < 5:
            self.problems.append(text)

    @property
    def ops(self) -> list[tuple[float, float, float]]:
        return list(zip(self.starts, self.ends, self.points))

    @property
    def latencies(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def route_latencies(self, route: str) -> list[float]:
        want = route == "batch"
        return [
            end - start
            for start, end, batch in zip(self.starts, self.ends, self.batch)
            if batch == want
        ]

    def points_per_s(self) -> float:
        """Correct points per second over the whole timed window.

        A whole-window rate moves in proportion to the share of the run
        the machine spends in each of its speed states, where a median
        would jump between them; one stall moves it by its share of
        the window only.  Serial workloads count only their op spans.
        """
        if self.serial:
            timeline = busy_timeline(self.ops)
            return window_rate(timeline, 0.0, timeline[-1][1])
        return window_rate(self.ops, self.t0, self.t1)

    def p50_ms(self) -> float:
        return median(self.latencies) * 1e3

    def tail_ms(self, q: float) -> float:
        return percentile(self.latencies, q) * 1e3

    def samples_beyond(self, q: float) -> int:
        return int(self.attempted * (100.0 - q) / 100.0)


def layer_metrics(trace: Trace) -> dict[str, float]:
    """Per-layer figures every workload shares (plan, batch, residual)."""
    evaluates = trace.named("core.plan.evaluate")
    gbps = []
    for s in evaluates:
        rows, streamed, copy = s[INFO]
        # Computed bytes: 8 B per row of each streamed input column, of
        # the 8 result columns, and of the copy-out (read + write).
        computed = 8 * rows * (streamed + 8 + (16 if copy else 0))
        gbps.append(computed / (s[END] - s[START]) / 1e9)
    means, mean_op, sum_error = trace.breakdown
    return {
        "plan.evaluate_us": _us(trace.durations("core.plan.evaluate")),
        "plan.rows_per_call": float(
            median([s[INFO][0] for s in evaluates] or [0])
        ),
        "plan.gbytes_per_s": median(gbps or [0.0]),
        "plan.compiles": float(len(trace.named("core.plan.compile"))),
        "batch.predict_us": _us(trace.durations("core.batch.batch_predict")),
        "batch.violations_us": _us(
            trace.durations("core.batch.row_violations")
        ),
        "trace.residual_share": means.get("residual", 0.0) / mean_op
        if mean_op else 0.0,
        "trace.sum_error": sum_error,
    }


def breakdown_table(trace: Trace) -> dict[str, object]:
    """Mean self time per op by span, the residual, and their sum."""
    means, mean_op, sum_error = trace.breakdown
    rows = {
        name: {"self_us": round(value * 1e6, 3),
               "share": round(value / mean_op, 4)}
        for name, value in sorted(means.items(), key=lambda kv: -kv[1])
    }
    return {
        "ops": len(trace.roots),
        "op_us": round(mean_op * 1e6, 3),
        "sum_of_self_us": round(sum(means.values()) * 1e6, 3),
        "sum_error": sum_error,
        "layers": rows,
    }


def _us(values: list[float]) -> float:
    return median(values) * 1e6 if values else 0.0

