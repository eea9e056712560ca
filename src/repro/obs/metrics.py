"""Metrics primitives: counters, gauges, and percentile histograms.

A :class:`MetricsRegistry` hands out named instruments get-or-create
style, so any module can do::

    from repro.obs import get_metrics
    get_metrics().counter("throughput.predictions").inc()

without coordinating instrument creation.  Names are dotted-path strings;
the registry enforces that a name is never reused under a different
instrument type (a classic silent-aggregation bug).

Histograms keep exact ``count``/``sum``/``min``/``max`` but bound their
stored samples: once the buffer fills, retention decimates to every
second sample and the keep-stride doubles.  Percentiles degrade gracefully
on long runs instead of the registry growing without bound inside a
library that servers may keep resident for days.  Decimation is
deterministic — no reservoir randomness — so tests and repeated runs see
identical summaries.

Percentiles are *linearly interpolated* over the retained reservoir
(numpy's default ``linear`` method, implemented here without the numpy
dependency).  The earlier nearest-rank rule collapsed adjacent quantiles
once decimation thinned the reservoir — the first committed benchmark
record (commit a79a307) had ``experiment.rel_error`` with p90 == p99 —
whereas interpolation keeps distinct quantiles distinct as long as the
retained samples are.

The batch prediction engine records thousands to millions of
observations per call; :meth:`Histogram.observe_many` ingests an entire
numpy-like array with O(retained) python-level work instead of O(n)
``observe`` calls, preserving exact aggregates and the deterministic
decimation contract.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from ..errors import ObservabilityError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0: counters only go up)."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (amount={amount})"
            )
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = math.nan
        self.updates = 0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)
        self.updates += 1


class Histogram:
    """Distribution summary with interpolated percentiles.

    ``max_samples`` bounds memory; see the module docstring for the
    deterministic decimation scheme.
    """

    __slots__ = ("name", "count", "sum", "min", "max", "_samples",
                 "_max_samples", "_stride", "_phase")

    def __init__(self, name: str, max_samples: int = 8192) -> None:
        if max_samples < 2:
            raise ObservabilityError("max_samples must be >= 2")
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: list[float] = []
        self._max_samples = max_samples
        self._stride = 1  # keep every _stride-th observation
        self._phase = 0

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._phase += 1
        if self._phase >= self._stride:
            self._phase = 0
            self._samples.append(value)
            if len(self._samples) >= self._max_samples:
                # Halve retention: keep every second stored sample and
                # accept only every (2*stride)-th future observation.
                self._samples = self._samples[::2]
                self._stride *= 2

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a bulk of samples with O(retained) python-level work.

        ``values`` may be any iterable; numpy-like arrays (anything with
        ``size``/``sum``/``min``/``max``) take a vectorized fast path.
        Aggregates (``count``/``sum``/``min``/``max``) stay exact.  The
        retained reservoir keeps every ``stride``-th observation as the
        sequential path would; when one bulk exceeds the buffer, the
        incoming block is pre-decimated before conversion so the cost is
        bounded by ``max_samples`` regardless of ``len(values)``.
        """
        size = getattr(values, "size", None)
        if size is None:
            for value in values:
                self.observe(value)
            return
        n = int(size)
        if n == 0:
            return
        self.count += n
        self.sum += float(values.sum())
        low, high = float(values.min()), float(values.max())
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high
        # Select the observations the sequential stride would have kept:
        # the next keep happens (stride - phase) observations from now.
        kept = values[(self._stride - self._phase - 1) % self._stride::
                      self._stride]
        self._phase = (self._phase + n) % self._stride
        # Pre-decimate oversized blocks so tolist() stays bounded.
        while kept.shape[0] >= self._max_samples:
            kept = kept[::2]
            self._stride *= 2
            self._phase = 0
        self._samples.extend(float(v) for v in kept.tolist())
        while len(self._samples) >= self._max_samples:
            self._samples = self._samples[::2]
            self._stride *= 2
            self._phase = 0

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (exact)."""
        return self.sum / self.count if self.count else math.nan

    def percentile(self, p: float) -> float:
        """Linearly interpolated percentile over the retained samples.

        ``p`` is in [0, 100].  Exact until the sample cap is reached,
        approximate (decimated) beyond it.  Matches
        ``numpy.percentile(..., method="linear")`` on the reservoir, so
        distinct quantiles stay distinct even after decimation (the old
        nearest-rank rule reported p90 == p99 on thinned reservoirs).
        """
        if not 0 <= p <= 100:
            raise ObservabilityError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return math.nan
        ordered = sorted(self._samples)
        if len(ordered) == 1:
            return ordered[0]
        position = p / 100 * (len(ordered) - 1)
        lower = math.floor(position)
        upper = min(lower + 1, len(ordered) - 1)
        fraction = position - lower
        return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction

    def cumulative_buckets(self, bounds: Sequence[float]) -> list[int]:
        """Cumulative observation counts at each upper ``bound``.

        Bucket counts are synthesized from the decimated reservoir and
        scaled to the exact total ``count`` (the same derivation the
        Prometheus exposition uses), so the returned series is
        non-decreasing and every entry is <= ``count``.  The caller owns
        the ``+Inf`` bucket — it is exactly ``count``.
        """
        samples = sorted(self._samples)
        retained = len(samples)
        count = self.count
        position = 0
        out: list[int] = []
        for bound in bounds:
            while position < retained and samples[position] <= bound:
                position += 1
            cumulative = (
                round(position * count / retained) if retained else 0
            )
            out.append(min(cumulative, count))
        return out

    def summary(self) -> dict[str, float]:
        """The flat record exporters serialise."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Named instrument store with get-or-create semantics."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _check_free(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other_kind != kind and name in table:
                raise ObservabilityError(
                    f"metric {name!r} already registered as a {other_kind}, "
                    f"cannot reuse as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        """Fetch or create the counter called ``name``."""
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_free(name, "counter")
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Fetch or create the gauge called ``name``."""
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_free(name, "gauge")
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, max_samples: int = 8192) -> Histogram:
        """Fetch or create the histogram called ``name``."""
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_free(name, "histogram")
            instrument = self._histograms[name] = Histogram(name, max_samples)
        return instrument

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(
            [*self._counters, *self._gauges, *self._histograms]
        )

    def as_dict(self) -> dict[str, object]:
        """JSON-ready snapshot of every instrument."""
        snapshot: dict[str, object] = {}
        for name, counter in self._counters.items():
            snapshot[name] = {"type": "counter", "value": counter.value}
        for name, gauge in self._gauges.items():
            snapshot[name] = {
                "type": "gauge",
                "value": gauge.value,
                "updates": gauge.updates,
            }
        for name, histogram in self._histograms.items():
            snapshot[name] = {"type": "histogram", **histogram.summary()}
        return dict(sorted(snapshot.items()))

    def reset(self) -> None:
        """Drop every instrument (used between test cases / CLI runs)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
