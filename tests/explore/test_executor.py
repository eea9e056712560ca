"""Executor tests: chunked explore, process pool, map_designs."""

import dataclasses

import numpy as np
import pytest

from repro.core.buffering import BufferingMode
from repro.core.throughput import predict
from repro.errors import ExplorationError, ParameterError
from repro.explore import (
    DesignSpace,
    MapResult,
    RetryPolicy,
    explore,
    map_designs,
)
from repro.obs import configure, get_metrics, get_tracer, reset

from . import faults


def _space(base, n=40):
    return DesignSpace.random(
        base, n, seed=11, clock_mhz=(50, 300), alpha=(0.1, 0.9)
    )


def _t_rc_single(rat):
    """Module-level evaluator so it pickles into pool workers."""
    return predict(rat, BufferingMode.SINGLE).t_rc


class TestExplore:
    def test_matches_scalar_loop(self, pdf1d_rat):
        space = _space(pdf1d_rat)
        result = explore(space, chunk_size=7)
        assert len(result) == len(space)
        for i, rat in enumerate(space.designs()):
            assert float(result.prediction.speedup[i]) == pytest.approx(
                predict(rat).speedup, rel=1e-12
            )

    def test_chunking_invariant(self, pdf1d_rat):
        space = _space(pdf1d_rat, 33)
        whole = explore(space, chunk_size=1000)
        chunked = explore(space, chunk_size=5)
        assert (whole.prediction.t_rc == chunked.prediction.t_rc).all()

    def test_double_buffered(self, pdf2d_rat):
        space = _space(pdf2d_rat, 8)
        result = explore(space, BufferingMode.DOUBLE)
        for i, rat in enumerate(space.designs()):
            assert float(result.prediction.t_rc[i]) == pytest.approx(
                predict(rat, BufferingMode.DOUBLE).t_rc, rel=1e-12
            )

    def test_parallel_equals_serial(self, pdf1d_rat):
        space = _space(pdf1d_rat, 24)
        serial = explore(space, chunk_size=6)
        parallel = explore(space, chunk_size=6, workers=2)
        assert (serial.prediction.speedup == parallel.prediction.speedup).all()
        assert (serial.prediction.t_rc == parallel.prediction.t_rc).all()

    def test_best(self, pdf1d_rat):
        space = DesignSpace.grid(pdf1d_rat, clock_mhz=[75, 150, 100])
        point, prediction = explore(space).best()
        assert point == {"clock_mhz": 150.0}
        assert prediction.speedup == pytest.approx(
            predict(pdf1d_rat.with_clock_hz(150e6)).speedup
        )

    def test_as_records_merges_axes(self, pdf1d_rat):
        space = DesignSpace.grid(pdf1d_rat, clock_mhz=[75, 150])
        records = explore(space).as_records()
        assert [r["clock_mhz"] for r in records] == [75.0, 150.0]
        assert all("speedup" in r and "t_rc" in r for r in records)

    def test_invalid_arguments(self, simple_rat):
        space = _space(simple_rat, 4)
        with pytest.raises(ParameterError, match="chunk_size"):
            explore(space, chunk_size=0)
        with pytest.raises(ParameterError, match="workers"):
            explore(space, workers=-1)

    def test_metrics(self, simple_rat):
        metrics = get_metrics()
        before = metrics.counter("explore.points").value
        result = explore(_space(simple_rat, 12))
        assert metrics.counter("explore.points").value == before + 12
        gauge = metrics.gauge("explore.predictions_per_sec").value
        assert gauge == pytest.approx(result.points_per_sec, rel=1e-6)


class TestWorkerSemantics:
    def test_workers_zero_means_one_per_core(self, pdf1d_rat):
        space = _space(pdf1d_rat, 18)
        serial = explore(space, chunk_size=6)
        auto = explore(space, chunk_size=6, workers=0)
        assert (serial.prediction.t_rc == auto.prediction.t_rc).all()

    def test_negative_workers_rejected(self, simple_rat):
        with pytest.raises(ParameterError, match="workers"):
            explore(_space(simple_rat, 4), workers=-2)


class TestThroughputClamp:
    def test_points_per_sec_finite_at_zero_elapsed(self, pdf1d_rat):
        result = explore(_space(pdf1d_rat, 4))
        frozen = dataclasses.replace(result, elapsed_s=0.0)
        assert np.isfinite(frozen.points_per_sec)
        assert frozen.points_per_sec > 0

    def test_gauge_always_set(self, simple_rat):
        metrics = get_metrics()
        metrics.gauge("explore.predictions_per_sec").set(0.0)
        explore(_space(simple_rat, 4))
        gauge = metrics.gauge("explore.predictions_per_sec").value
        assert np.isfinite(gauge) and gauge > 0


class TestChunkObservability:
    @pytest.fixture(autouse=True)
    def clean_observability(self):
        reset()
        yield
        reset()

    def test_serial_chunks_record_real_spans(self, pdf1d_rat):
        configure(trace=True)
        explore(_space(pdf1d_rat, 12), chunk_size=4)
        chunks = [
            s for s in get_tracer().spans if s.name == "explore.chunk"
        ]
        assert len(chunks) == 3
        assert [s.attributes["chunk"] for s in chunks] == [0, 1, 2]
        assert all(s.attributes["elapsed_s"] > 0 for s in chunks)

    def test_pool_chunks_record_synthetic_spans(self, pdf1d_rat):
        # Worker-evaluated chunks cannot span in the parent; the worker
        # returns its elapsed time and the parent re-emits it.
        configure(trace=True)
        explore(_space(pdf1d_rat, 12), chunk_size=4, workers=2)
        chunks = [
            s for s in get_tracer().spans if s.name == "explore.chunk"
        ]
        assert len(chunks) == 3
        assert sorted(s.attributes["chunk"] for s in chunks) == [0, 1, 2]
        assert all(s.attributes["synthetic"] is True for s in chunks)
        assert all(s.attributes["elapsed_s"] > 0 for s in chunks)

    def test_chunk_seconds_histogram_fed_on_pool_path(self, pdf1d_rat):
        histogram = get_metrics().histogram("explore.chunk_seconds")
        before = histogram.count
        explore(_space(pdf1d_rat, 12), chunk_size=4, workers=2)
        assert histogram.count == before + 3


class TestExploreFaultSurface:
    def test_fail_raises_exploration_error_with_partial(self, pdf1d_rat):
        space = _space(pdf1d_rat, 12)
        with pytest.raises(ExplorationError) as excinfo:
            explore(
                space, chunk_size=4,
                retry=RetryPolicy(max_retries=0, backoff_s=0.0),
                chunk_fn=faults.raising_chunk,
            )
        error = excinfo.value
        assert len(error.chunk_failures) == 1
        assert error.chunk_failures[0].lo == 0
        assert error.partial is not None

    def test_unknown_on_error_rejected(self, simple_rat):
        with pytest.raises(ParameterError, match="on_error"):
            explore(_space(simple_rat, 4), on_error="panic")

    def test_failed_points_counter(self, pdf1d_rat):
        metrics = get_metrics()
        before = metrics.counter("explore.failed_points").value
        space = DesignSpace.grid(pdf1d_rat, clock_mhz=[0.0, 100.0, 150.0])
        explore(space, on_error="quarantine")
        assert metrics.counter("explore.failed_points").value == before + 1


class TestMapDesigns:
    def test_serial(self, pdf1d_rat):
        space = _space(pdf1d_rat, 9)
        results = map_designs(space, _t_rc_single, chunk_size=4)
        expected = [predict(r).t_rc for r in space.designs()]
        assert results == pytest.approx(expected)

    def test_parallel_preserves_order(self, pdf1d_rat):
        space = _space(pdf1d_rat, 12)
        serial = map_designs(space, _t_rc_single)
        parallel = map_designs(space, _t_rc_single, workers=2, chunk_size=3)
        assert parallel == serial

    def test_invalid_arguments(self, simple_rat):
        space = _space(simple_rat, 4)
        with pytest.raises(ParameterError, match="workers"):
            map_designs(space, _t_rc_single, workers=-1)
        with pytest.raises(ParameterError, match="chunk_size"):
            map_designs(space, _t_rc_single, chunk_size=0)


class TestMapDesignsFaults:
    def _space_with_bad_clocks(self, base):
        # Designs below 80 MHz make raise_on_slow_clock_eval raise.
        return DesignSpace.grid(
            base, clock_mhz=[75.0, 100.0, 150.0, 60.0, 200.0, 250.0]
        )

    def test_quarantine_keeps_none_entries(self, pdf1d_rat):
        space = self._space_with_bad_clocks(pdf1d_rat)
        result = map_designs(
            space, faults.raise_on_slow_clock_eval,
            chunk_size=2, on_error="quarantine",
            retry=RetryPolicy(max_retries=0, backoff_s=0.0),
            detail=True,
        )
        assert isinstance(result, MapResult)
        # Chunk granularity: each failing design takes its chunk down.
        assert result.results[0] is None and result.results[1] is None
        assert result.results[2] is None and result.results[3] is None
        assert result.results[4] is not None
        assert result.indices.tolist() == [0, 1, 2, 3, 4, 5]
        assert len(result.chunk_failures) == 2

    def test_skip_drops_failed_chunks(self, pdf1d_rat):
        space = self._space_with_bad_clocks(pdf1d_rat)
        result = map_designs(
            space, faults.raise_on_slow_clock_eval,
            chunk_size=2, on_error="skip",
            retry=RetryPolicy(max_retries=0, backoff_s=0.0),
            detail=True,
        )
        assert result.indices.tolist() == [4, 5]
        assert len(result.results) == 2

    def test_fail_raises(self, pdf1d_rat):
        space = self._space_with_bad_clocks(pdf1d_rat)
        with pytest.raises(ExplorationError, match="ValueError"):
            map_designs(
                space, faults.raise_on_slow_clock_eval, chunk_size=2,
                retry=RetryPolicy(max_retries=0, backoff_s=0.0),
            )


class TestPlanReuse:
    def test_serial_explore_compiles_once_per_worksheet(self, pdf1d_rat):
        from repro.core.plan import shared_plan

        space = DesignSpace.grid(
            pdf1d_rat, clock_hz=tuple(np.linspace(5e7, 3e8, 64))
        )
        # Prime the process-wide cache, then repeated explores (each
        # evaluating many chunks) must never compile another plan.
        shared_plan(space.base)
        compiles = get_metrics().counter("plan.compiles")
        before = compiles.value
        for _ in range(3):
            explore(space, chunk_size=8)
        assert compiles.value == before

    def test_plan_path_matches_scalar_rows(self, pdf1d_rat):
        clocks = tuple(np.linspace(5e7, 3e8, 17))
        space = DesignSpace.grid(pdf1d_rat, clock_hz=clocks)
        result = explore(space, chunk_size=5)
        for i, clock in enumerate(clocks):
            expected = predict(pdf1d_rat.with_clock_hz(float(clock)))
            assert float(result.prediction.speedup[i]) == expected.speedup

    def test_chunk_columns_survive_across_chunks(self, pdf1d_rat):
        # Plan results are copied out of the plan's buffers per chunk;
        # a later chunk must not clobber an earlier chunk's rows.
        space = DesignSpace.grid(
            pdf1d_rat, clock_hz=tuple(np.linspace(5e7, 3e8, 40))
        )
        chunked = explore(space, chunk_size=4)   # 10 sequential chunks
        whole = explore(space, chunk_size=1000)  # single chunk
        assert np.array_equal(
            chunked.prediction.speedup, whole.prediction.speedup
        )
