"""Unit tests for the exploration runtime (repro.explore.runtime)."""

import gc
import pickle

import numpy as np
import pytest

from repro.core.batch import BatchInput
from repro.errors import ExplorationError, ParameterError, RATError
from repro.explore import (
    ChunkFailure,
    DesignSpace,
    PointFailure,
    quarantine_rows,
    run_chunks,
    runtime,
)
from repro.explore.runtime import check_on_error

from . import faults


class TestOnErrorPolicy:
    def test_known_policies_pass_through(self):
        for name in ("fail", "skip", "quarantine"):
            assert check_on_error(name) == name

    def test_unknown_policy_raises(self):
        with pytest.raises(ParameterError, match="on_error"):
            check_on_error("retry-forever")


class TestFailureRecords:
    def test_point_failure_describe_names_axes(self):
        failure = PointFailure(
            index=3,
            parameter="clock_hz",
            value=0.0,
            reason="clock_hz must be positive and finite, got 0.0",
            point={"clock_mhz": 0.0},
        )
        text = failure.describe()
        assert text == (
            "point 3 (clock_mhz=0): "
            "clock_hz must be positive and finite, got 0.0"
        )

    def test_point_failure_describe_without_point(self):
        failure = PointFailure(
            index=1, parameter="t_soft", value=-1.0, reason="bad"
        )
        assert failure.describe() == "point 1: bad"

    def test_point_failure_keyword_construction_and_repr(self):
        failure = PointFailure(
            index=1, parameter="t_soft", value=-1.0, reason="bad"
        )
        assert failure.point is None
        assert repr(failure) == (
            "PointFailure(index=1, parameter='t_soft', value=-1.0, "
            "reason='bad', point=None)"
        )
        located = PointFailure(3, "clock_hz", 0.0, "r", {"clock_mhz": 0.0})
        assert repr(located) == (
            "PointFailure(index=3, parameter='clock_hz', value=0.0, "
            "reason='r', point={'clock_mhz': 0.0})"
        )

    def test_point_failure_equality(self):
        failure = PointFailure(3, "clock_hz", 0.0, "r", {"clock_mhz": 0.0})
        assert failure == PointFailure(
            index=3, parameter="clock_hz", value=0.0, reason="r",
            point={"clock_mhz": 0.0},
        )
        assert failure != failure._replace(index=4)
        assert failure != failure._replace(point=None)
        # A record is a tuple of its fields, and compares equal to one.
        assert failure == (3, "clock_hz", 0.0, "r", {"clock_mhz": 0.0})

    def test_point_failure_pickles(self):
        failure = PointFailure(3, "clock_hz", 0.0, "r", {"clock_mhz": 0.0})
        copy = pickle.loads(pickle.dumps(failure))
        assert type(copy) is PointFailure
        assert copy == failure and copy.describe() == failure.describe()

    def test_point_failure_is_immutable(self):
        failure = PointFailure(1, "t_soft", -1.0, "bad")
        with pytest.raises(AttributeError):
            failure.index = 2
        with pytest.raises(AttributeError):
            failure.extra = 1
        assert failure.index == 1

    def test_chunk_failure_describe(self):
        failure = ChunkFailure(
            index=2, reason="boom", error_type="RuntimeError", lo=20, hi=30,
        )
        assert failure.describe() == (
            "chunk 2 rows [20, 30): RuntimeError: boom"
        )

    def test_exploration_error_is_a_rat_error(self):
        error = ExplorationError("boom", chunk_failures=())
        assert isinstance(error, RATError)
        assert isinstance(error, RuntimeError)


class TestQuarantineRows:
    def test_splits_valid_and_invalid(self, simple_rat):
        batch = BatchInput.from_base(
            simple_rat, 4, {"clock_hz": [1e8, 0.0, 2e8, -5.0]}, check=False
        )
        failed, failures = quarantine_rows(batch)
        assert failed.tolist() == [1, 3]
        assert [f.index for f in failures] == [1, 3]
        assert all(f.parameter == "clock_hz" for f in failures)
        assert failures[0].reason == (
            "clock_hz must be positive and finite, got 0.0"
        )

    def test_space_fills_axis_values(self, simple_rat):
        space = DesignSpace.grid(simple_rat, clock_mhz=[0.0, 100.0])
        _, failures = quarantine_rows(space.to_batch(check=False), space)
        assert failures[0].point == {"clock_mhz": 0.0}

    def test_all_valid(self, simple_rat):
        batch = BatchInput.from_base(simple_rat, 3, check=False)
        failed, failures = quarantine_rows(batch)
        assert failed.tolist() == []
        assert failures == ()

    @staticmethod
    def _many_failures(simple_rat):
        clocks = np.full(6000, 1e8)
        clocks[::2] = 0.0
        space = DesignSpace(
            base=simple_rat, axes=("clock_mhz",), values=clocks[:, None],
        )
        return space.to_batch(check=False), space

    def test_records_built_without_collector_passes(self, simple_rat):
        # 3,000 records with point dicts would run ~8 young-generation
        # passes, each counting towards a full collection of the heap.
        batch, space = self._many_failures(simple_rat)
        assert gc.isenabled()
        before = gc.get_stats()[0]["collections"]
        _, failures = quarantine_rows(batch, space)
        [None]  # a tracked allocation: the deferred pass runs here
        assert len(failures) == 3000
        assert gc.get_stats()[0]["collections"] - before <= 2
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self, simple_rat):
        batch, space = self._many_failures(simple_rat)
        gc.disable()
        try:
            quarantine_rows(batch, space)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_collector_restored_when_a_record_fails(self, simple_rat):
        batch, space = self._many_failures(simple_rat)

        class Boom(Exception):
            pass

        def boom(*_):
            raise Boom

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(runtime, "_new_record", boom)
            with pytest.raises(Boom):
                quarantine_rows(batch, space)
        assert gc.isenabled()


class TestRunChunksSerial:
    def test_all_succeed(self):
        assert run_chunks([1, 2, 3], faults.double) == ([2, 4, 6], [])

    def test_empty_tasks(self):
        assert run_chunks([], faults.double) == ([], [])

    def test_on_result_fires_in_order(self):
        seen = []
        run_chunks(
            [1, 2, 3], faults.double,
            on_result=lambda i, r: seen.append((i, r)),
        )
        assert seen == [(0, 2), (1, 4), (2, 6)]

    def test_initargs_follow_each_task_in_process(self):
        # In-process there is no initializer: the state it would seed
        # goes to every call instead.
        initialized = []
        results, _ = run_chunks(
            [1, 2], lambda task, k: task * k,
            initializer=initialized.append, initargs=(10,),
        )
        assert results == [10, 20]
        assert initialized == []

    def test_exhausted_fail_raises_with_partial(self):
        def fn(task):
            if task < 0:
                raise ValueError("injected")
            return task

        with pytest.raises(ExplorationError) as excinfo:
            run_chunks([1, -1, 2], fn)
        error = excinfo.value
        assert len(error.chunk_failures) == 1
        failure = error.chunk_failures[0]
        assert failure.index == 1
        assert failure.error_type == "ValueError"
        assert failure.reason == "injected"
        # The partial results keep what completed before the abort.
        assert error.partial == [1, None, None]
        assert isinstance(error.__cause__, ValueError)

    @pytest.mark.parametrize("on_error", ["skip", "quarantine"])
    def test_exhausted_nonfail_continues(self, on_error):
        results, failures = run_chunks(
            [1, -1, 2], faults.raise_on_negative, on_error=on_error,
        )
        assert results == [2, None, 4]
        assert [f.index for f in failures] == [1]

    def test_invalid_on_error(self):
        with pytest.raises(ParameterError, match="on_error"):
            run_chunks([1], faults.double, on_error="ignore")


class TestRunChunksPool:
    def test_matches_serial(self):
        tasks = list(range(10))
        assert run_chunks(tasks, faults.double, workers=2) == (
            [2 * t for t in tasks], [],
        )

    def test_worker_exception_quarantined(self):
        results, failures = run_chunks(
            [1, -1, 2, 3], faults.raise_on_negative,
            workers=2, on_error="quarantine",
        )
        assert results == [2, None, 4, 6]
        failure = failures[0]
        assert failure.index == 1
        assert failure.error_type == "ValueError"
        assert "injected task failure" in failure.reason

    def test_worker_exception_fail_raises(self):
        with pytest.raises(ExplorationError, match="ValueError"):
            run_chunks(
                [1, -1, 2], faults.raise_on_negative,
                workers=2, on_error="fail",
            )

    def test_single_task_runs_serial(self):
        # One task never pays pool start-up, even with workers > 1.
        seen = []
        results, _ = run_chunks(
            [4], faults.double, workers=8,
            on_result=lambda i, r: seen.append(i),
        )
        assert results == [8]
        assert seen == [0]
