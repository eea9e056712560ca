"""Metrics registry tests: instruments, percentiles, bounded memory."""

import math

import pytest

from repro.errors import ObservabilityError
from repro.obs import MetricsRegistry


class TestCounter:
    def test_increments(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_decrease(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ObservabilityError, match="decrease"):
            counter.inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        gauge = MetricsRegistry().gauge("g")
        assert math.isnan(gauge.value)
        gauge.set(1.0)
        gauge.set(7.0)
        assert gauge.value == 7.0
        assert gauge.updates == 2


class TestHistogram:
    def test_summary_statistics(self):
        histogram = MetricsRegistry().histogram("h")
        for value in [5.0, 1.0, 3.0, 2.0, 4.0]:
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == 15.0
        assert histogram.min == 1.0
        assert histogram.max == 5.0
        assert histogram.mean == 3.0
        assert histogram.percentile(50) == 3.0
        assert histogram.percentile(100) == 5.0
        assert histogram.percentile(0) == 1.0

    def test_percentile_bounds_checked(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(1.0)
        with pytest.raises(ObservabilityError):
            histogram.percentile(101)

    def test_empty_summary_is_nan(self):
        summary = MetricsRegistry().histogram("h").summary()
        assert summary["count"] == 0
        assert math.isnan(summary["mean"])
        assert math.isnan(summary["p50"])

    def test_sample_cap_bounds_memory_keeps_exact_aggregates(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", max_samples=64)
        n = 10_000
        for i in range(n):
            histogram.observe(float(i))
        assert histogram.count == n
        assert histogram.sum == sum(range(n))
        assert histogram.min == 0.0
        assert histogram.max == float(n - 1)
        assert len(histogram._samples) < 64
        # Decimated percentiles stay in the right region.
        assert histogram.percentile(50) == pytest.approx(n / 2, rel=0.25)

    def test_decimation_is_deterministic(self):
        def run():
            histogram = MetricsRegistry().histogram("h", max_samples=32)
            for i in range(1000):
                histogram.observe(float(i % 97))
            return histogram.summary()

        assert run() == run()


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")

    def test_name_cannot_change_type(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObservabilityError, match="already registered"):
            registry.gauge("x")

    def test_as_dict_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("a.count").inc(3)
        registry.gauge("b.level").set(1.5)
        registry.histogram("c.dist").observe(2.0)
        snapshot = registry.as_dict()
        assert list(snapshot) == sorted(snapshot)
        assert snapshot["a.count"] == {"type": "counter", "value": 3.0}
        assert snapshot["b.level"]["value"] == 1.5
        assert snapshot["c.dist"]["count"] == 1

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.reset()
        assert registry.names() == []
        assert registry.counter("a").value == 0


class TestInterpolatedPercentiles:
    def test_matches_numpy_linear_method(self):
        numpy = pytest.importorskip("numpy")
        histogram = MetricsRegistry().histogram("h")
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]
        for value in values:
            histogram.observe(value)
        for p in (0, 10, 25, 50, 75, 90, 99, 100):
            assert histogram.percentile(p) == pytest.approx(
                float(numpy.percentile(values, p))
            )

    def test_interpolates_between_ranks(self):
        histogram = MetricsRegistry().histogram("h")
        for value in (0.0, 10.0):
            histogram.observe(value)
        assert histogram.percentile(50) == pytest.approx(5.0)
        assert histogram.percentile(90) == pytest.approx(9.0)

    def test_p90_distinct_from_p99_after_decimation(self):
        # Regression: nearest-rank percentiles collapsed p90 == p99 once
        # decimation thinned the reservoir (seen in the first committed
        # benchmark record, commit a79a307).
        histogram = MetricsRegistry().histogram("h", max_samples=64)
        for i in range(10_000):
            histogram.observe(float(i))
        summary = histogram.summary()
        assert summary["p90"] != summary["p99"]
        assert summary["p50"] < summary["p90"] < summary["p99"]
        assert summary["p90"] == pytest.approx(9_000, rel=0.1)
        assert summary["p99"] == pytest.approx(9_900, rel=0.1)


class TestObserveMany:
    def test_array_fast_path_matches_sequential(self):
        numpy = pytest.importorskip("numpy")
        values = numpy.linspace(0.0, 50.0, 101)
        bulk = MetricsRegistry().histogram("h")
        bulk.observe_many(values)
        sequential = MetricsRegistry().histogram("h")
        for value in values:
            sequential.observe(float(value))
        assert bulk.summary() == sequential.summary()

    def test_exact_aggregates_past_the_cap(self):
        numpy = pytest.importorskip("numpy")
        histogram = MetricsRegistry().histogram("h", max_samples=32)
        values = numpy.arange(100_000, dtype=numpy.float64)
        histogram.observe_many(values)
        assert histogram.count == 100_000
        assert histogram.sum == pytest.approx(float(values.sum()))
        assert histogram.min == 0.0
        assert histogram.max == 99_999.0
        assert len(histogram._samples) < 32

    def test_plain_iterable_falls_back_to_observe(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe_many([1.0, 2.0, 3.0])
        assert histogram.count == 3
        assert histogram.sum == 6.0

    def test_empty_array_is_a_noop(self):
        numpy = pytest.importorskip("numpy")
        histogram = MetricsRegistry().histogram("h")
        histogram.observe_many(numpy.array([], dtype=numpy.float64))
        assert histogram.count == 0

    def test_interleaved_bulk_and_scalar_keep_exact_count(self):
        numpy = pytest.importorskip("numpy")
        histogram = MetricsRegistry().histogram("h", max_samples=16)
        histogram.observe(1.0)
        histogram.observe_many(numpy.full(1000, 2.0))
        histogram.observe(3.0)
        assert histogram.count == 1002
        assert histogram.max == 3.0
        assert len(histogram._samples) < 16
