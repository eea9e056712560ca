"""Executor tests: chunked in-process explore, map_designs and its pool."""

import dataclasses
import gc
import inspect
import multiprocessing.process
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core.buffering import BufferingMode
from repro.core.throughput import predict
from repro.errors import ExplorationError, ParameterError
from repro.explore import (
    DesignSpace,
    MapResult,
    explore,
    executor,
    map_designs,
)
from repro.obs import configure, get_metrics, get_tracer, reset

from tests.conftest import (
    RESULT_COLUMNS,
    assert_explore_rows_match_scalar,
    assert_matches_scalar,
)

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
            assert float(result.prediction.speedup[i]) == predict(rat).speedup

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

    def test_runs_in_process(self, pdf1d_rat, tmp_path, monkeypatch):
        assert list(inspect.signature(explore).parameters) == [
            "space", "mode", "chunk_size", "on_error", "checkpoint", "resume",
        ]

        def forbidden(*args, **kwargs):
            raise AssertionError("explore() left the calling process")

        monkeypatch.setattr(executor, "run_chunks", forbidden)
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start", forbidden
        )
        space = _space(pdf1d_rat, 12)
        for on_error in ("fail", "skip", "quarantine"):
            result = explore(
                space, chunk_size=4, on_error=on_error,
                checkpoint=tmp_path / f"{on_error}.jsonl",
            )
            assert len(result) == 12

    def test_metrics(self, simple_rat):
        metrics = get_metrics()
        before = metrics.counter("explore.points").value
        result = explore(_space(simple_rat, 12))
        assert metrics.counter("explore.points").value == before + 12
        gauge = metrics.gauge("explore.predictions_per_sec").value
        assert gauge == pytest.approx(result.points_per_sec, rel=1e-6)


class TestWorkerSemantics:
    """map_designs' ``workers`` knob (explore has no pool)."""

    def test_workers_zero_means_one_per_core(self, pdf1d_rat):
        space = _space(pdf1d_rat, 18)
        serial = map_designs(space, _t_rc_single, chunk_size=6)
        auto = map_designs(space, _t_rc_single, chunk_size=6, workers=0)
        assert auto == serial

    def test_negative_workers_rejected(self, simple_rat):
        with pytest.raises(ParameterError, match="workers"):
            map_designs(_space(simple_rat, 4), _t_rc_single, workers=-2)


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
        # A real span encloses the chunk's own timing; a re-emitted
        # one lasts ~0 and says so.
        assert all(s.duration >= s.attributes["elapsed_s"] for s in chunks)
        assert all("synthetic" not in s.attributes for s in chunks)

    def test_serial_map_designs_chunks_record_real_spans(self, pdf1d_rat):
        # Chunks evaluated in the calling process span the evaluator
        # work itself; only pool chunks need a re-emitted span.
        configure(trace=True)
        histogram = get_metrics().histogram("explore.chunk_seconds")
        before = histogram.count
        map_designs(_space(pdf1d_rat, 12), _t_rc_single, chunk_size=4)
        chunks = [
            s for s in get_tracer().spans if s.name == "explore.chunk"
        ]
        assert [s.attributes["chunk"] for s in chunks] == [0, 1, 2]
        assert all(s.attributes["elapsed_s"] > 0 for s in chunks)
        assert all(s.duration >= s.attributes["elapsed_s"] for s in chunks)
        assert all("synthetic" not in s.attributes for s in chunks)
        assert histogram.count == before + 3

    def test_pool_chunks_record_synthetic_spans(self, pdf1d_rat):
        # map_designs chunks evaluated in workers cannot span in the
        # parent; the worker returns its elapsed time and the parent
        # re-emits it.
        configure(trace=True)
        map_designs(
            _space(pdf1d_rat, 12), _t_rc_single, chunk_size=4, workers=2
        )
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
        map_designs(
            _space(pdf1d_rat, 12), _t_rc_single, chunk_size=4, workers=2
        )
        assert histogram.count == before + 3


class TestExploreFaultSurface:
    def test_kernel_exception_propagates(self, pdf1d_rat, monkeypatch):
        # Vetted rows cannot make the kernel raise, so explore() neither
        # retries nor wraps what it raises.
        calls = []

        def broken(batch, mode, out):
            calls.append(len(batch))
            raise RuntimeError("injected kernel failure")

        monkeypatch.setattr(executor, "_predict_into", broken)
        with pytest.raises(RuntimeError, match="injected kernel failure"):
            explore(_space(pdf1d_rat, 12), chunk_size=4)
        assert calls == [4]

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

    def test_concurrent_runs_keep_their_own_space_and_evaluator(
        self, pdf1d_rat
    ):
        # Every evaluator call waits for one call from each thread, so
        # the runs advance in lockstep: all of them are past their
        # start before any evaluates its second chunk.
        threads = 4
        barrier = threading.Barrier(threads, timeout=30)

        def tagged(tag):
            def evaluate(rat):
                barrier.wait()
                return tag, rat.computation.clock_hz
            return evaluate

        spaces = [
            DesignSpace.grid(
                pdf1d_rat, clock_mhz=[100.0 + 10 * t + k for k in range(8)]
            )
            for t in range(threads)
        ]
        results = [None] * threads

        def run(t):
            results[t] = map_designs(spaces[t], tagged(t), chunk_size=2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=run, args=(t,))
                for t in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for t, space in enumerate(spaces):
            expected = [
                (t, rat.computation.clock_hz) for rat in space.designs()
            ]
            assert results[t] == expected

    def test_finished_run_releases_its_space(self, pdf1d_rat):
        space = _space(pdf1d_rat, 6)
        assert len(map_designs(space, _t_rc_single, chunk_size=2)) == 6
        released = weakref.ref(space)
        del space
        gc.collect()
        assert released() is None


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
            chunk_size=2, on_error="quarantine", detail=True,
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
            chunk_size=2, on_error="skip", detail=True,
        )
        assert result.indices.tolist() == [4, 5]
        assert len(result.results) == 2

    def test_fail_raises(self, pdf1d_rat):
        space = self._space_with_bad_clocks(pdf1d_rat)
        with pytest.raises(ExplorationError, match="ValueError"):
            map_designs(
                space, faults.raise_on_slow_clock_eval, chunk_size=2,
                )


class TestPlanReuse:
    """Row guarantees explore kept when it stopped evaluating via plans."""

    def test_plan_path_matches_scalar_rows(self, pdf1d_rat):
        clocks = tuple(np.linspace(5e7, 3e8, 17))
        space = DesignSpace.grid(pdf1d_rat, clock_hz=clocks)
        result = explore(space, chunk_size=5)
        for i, clock in enumerate(clocks):
            expected = predict(pdf1d_rat.with_clock_hz(float(clock)))
            assert float(result.prediction.speedup[i]) == expected.speedup

    def test_chunk_columns_survive_across_chunks(self, pdf1d_rat):
        # Each chunk writes its own slice of the result columns; a later
        # chunk must not clobber an earlier chunk's rows.
        space = DesignSpace.grid(
            pdf1d_rat, clock_hz=tuple(np.linspace(5e7, 3e8, 40))
        )
        chunked = explore(space, chunk_size=4)   # 10 sequential chunks
        whole = explore(space, chunk_size=1000)  # single chunk
        assert np.array_equal(
            chunked.prediction.speedup, whole.prediction.speedup
        )


#: Rows per chunk in the result-column tests; their spaces span three
#: full chunks and a partial fourth.
CHUNK = 16
N = 3 * CHUNK + 5

BATCH_COLUMNS = (
    "elements_in", "elements_out", "bytes_per_element", "ideal_bandwidth",
    "alpha_write", "alpha_read", "ops_per_element", "throughput_proc",
    "clock_hz", "t_soft", "n_iterations",
)


def _parity_space(base, bad=()):
    """``N`` points over clock x alpha; the other columns stay constant.

    Rows in ``bad`` get an invalid clock.
    """
    values = DesignSpace.random(
        base, N, seed=3, clock_mhz=(50, 300), alpha=(0.1, 0.9)
    ).values.copy()
    values[list(bad), 0] = -1.0
    return DesignSpace(base=base, axes=("clock_mhz", "alpha"), values=values)


def _assert_nan_rows(result, rows):
    for name in RESULT_COLUMNS:
        assert np.isnan(getattr(result.prediction, name)[rows]).all(), name


class TestResultColumns:
    """Every chunk lands in its slice of the call's result columns."""

    @pytest.mark.parametrize("mode", list(BufferingMode))
    def test_every_row_matches_scalar(self, pdf1d_rat, mode):
        space = _parity_space(pdf1d_rat)
        batch = space.to_batch()
        assert len(batch.broadcast) == 8  # clock and both alphas vary
        result = explore(space, mode, chunk_size=CHUNK)
        assert_matches_scalar(batch, mode, result.prediction)

    def test_quarantined_points_are_nan_rows(self, pdf1d_rat):
        bad = [0, CHUNK - 1, CHUNK, 2 * CHUNK + 3, N - 1]
        result = explore(
            _parity_space(pdf1d_rat, bad),
            chunk_size=CHUNK, on_error="quarantine",
        )
        assert [failure.index for failure in result.failures] == bad
        assert len(result) == N
        _assert_nan_rows(result, bad)
        assert_explore_rows_match_scalar(
            result, np.setdiff1d(np.arange(N), bad)
        )

    @pytest.mark.parametrize("on_error", ["quarantine", "skip"])
    def test_every_point_quarantined(self, pdf1d_rat, on_error):
        result = explore(
            _parity_space(pdf1d_rat, bad=range(N)),
            chunk_size=CHUNK, on_error=on_error,
        )
        assert len(result.failures) == N
        if on_error == "skip":
            assert len(result) == 0
            assert result.indices.tolist() == []
        else:
            assert len(result) == N
            _assert_nan_rows(result, np.arange(N))

    @pytest.mark.parametrize("kwargs", [
        {}, {"on_error": "quarantine"}, {"on_error": "skip"},
    ], ids=["serial", "quarantine", "skip"])
    def test_columns_writable_and_unshared(self, pdf1d_rat, kwargs):
        bad = [3] if "on_error" in kwargs else []
        space = _parity_space(pdf1d_rat, bad)
        result = explore(space, chunk_size=CHUNK, **kwargs)
        columns = [getattr(result.prediction, name) for name in RESULT_COLUMNS]
        batch = result.prediction.batch
        inputs = [space.values]
        inputs += [getattr(batch, name) for name in BATCH_COLUMNS]
        for i, column in enumerate(columns):
            assert column.flags.writeable, RESULT_COLUMNS[i]
            for other in columns[i + 1:] + inputs:
                assert not np.shares_memory(column, other), RESULT_COLUMNS[i]

    def test_explore_compiles_no_plan(self, pdf1d_rat):
        compiles = get_metrics().counter("plan.compiles")
        before = compiles.value
        explore(_parity_space(pdf1d_rat), chunk_size=CHUNK)
        assert compiles.value == before
