"""Unit tests for the fault-tolerant chunk engine (repro.explore.runtime)."""

import numpy as np
import pytest

from repro.core.batch import BatchInput
from repro.errors import ExplorationError, ParameterError, RATError
from repro.explore import (
    ChunkFailure,
    ChunkRunReport,
    DesignSpace,
    PointFailure,
    RetryPolicy,
    quarantine_rows,
    run_chunks,
)
from repro.explore.runtime import check_on_error

from . import faults


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_retries == 2
        assert policy.backoff_s == pytest.approx(0.05)
        assert policy.backoff_factor == pytest.approx(2.0)
        assert policy.timeout_s is None

    def test_delay_grows_exponentially(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=3.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.3)
        assert policy.delay(3) == pytest.approx(0.9)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"max_retries": -1}, "max_retries"),
            ({"backoff_s": -0.1}, "backoff_s"),
            ({"backoff_factor": 0.5}, "backoff_factor"),
            ({"timeout_s": 0.0}, "timeout_s"),
            ({"timeout_s": -2.0}, "timeout_s"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ParameterError, match=match):
            RetryPolicy(**kwargs)


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

    def test_chunk_failure_describe(self):
        failure = ChunkFailure(
            index=2, reason="boom", error_type="RuntimeError",
            attempts=3, lo=20, hi=30,
        )
        assert failure.describe() == (
            "chunk 2 rows [20, 30): RuntimeError after 3 attempt(s): boom"
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
        valid, failures = quarantine_rows(batch)
        assert valid.tolist() == [0, 2]
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
        valid, failures = quarantine_rows(batch)
        assert valid.tolist() == [0, 1, 2]
        assert failures == ()


class TestRunChunksSerial:
    def test_all_succeed(self):
        report = run_chunks([1, 2, 3], faults.double)
        assert report.results == [2, 4, 6]
        assert report.failures == []
        assert report.retries == 0
        assert not report.degraded

    def test_empty_tasks(self):
        report = run_chunks([], faults.double)
        assert report.results == []
        assert report.failures == []

    def test_on_result_fires_in_order(self):
        seen = []
        run_chunks(
            [1, 2, 3], faults.double,
            on_result=lambda i, r: seen.append((i, r)),
        )
        assert seen == [(0, 2), (1, 4), (2, 6)]

    def test_transient_failure_retried_with_backoff(self):
        calls = {"n": 0}

        def flaky(task):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise RuntimeError("transient")
            return task * 10

        delays = []
        policy = RetryPolicy(max_retries=3, backoff_s=0.5, backoff_factor=2.0)
        report = run_chunks(
            [7], flaky, policy=policy, sleep=delays.append
        )
        assert report.results == [70]
        assert report.retries == 2
        assert delays == pytest.approx([0.5, 1.0])

    def test_exhausted_fail_raises_with_partial(self):
        def fn(task):
            if task < 0:
                raise ValueError("injected")
            return task

        policy = RetryPolicy(max_retries=1, backoff_s=0.0)
        with pytest.raises(ExplorationError) as excinfo:
            run_chunks([1, -1, 2], fn, policy=policy, sleep=lambda s: None)
        error = excinfo.value
        assert len(error.chunk_failures) == 1
        failure = error.chunk_failures[0]
        assert failure.index == 1
        assert failure.error_type == "ValueError"
        assert failure.attempts == 2
        # The partial report keeps what completed before the abort.
        assert error.partial.results[0] == 1

    @pytest.mark.parametrize("on_error", ["skip", "quarantine"])
    def test_exhausted_nonfail_continues(self, on_error):
        policy = RetryPolicy(max_retries=0, backoff_s=0.0)
        report = run_chunks(
            [1, -1, 2], faults.raise_on_negative,
            policy=policy, on_error=on_error, sleep=lambda s: None,
        )
        assert report.results == [2, None, 4]
        assert report.failed_indices == {1}
        assert report.failures[0].attempts == 1

    def test_invalid_on_error(self):
        with pytest.raises(ParameterError, match="on_error"):
            run_chunks([1], faults.double, on_error="ignore")


class TestRunChunksPool:
    def test_matches_serial(self):
        tasks = list(range(10))
        pooled = run_chunks(tasks, faults.double, workers=2)
        assert pooled.results == [2 * t for t in tasks]
        assert pooled.failures == []

    def test_worker_exception_quarantined(self):
        policy = RetryPolicy(max_retries=0, backoff_s=0.0)
        report = run_chunks(
            [1, -1, 2, 3], faults.raise_on_negative,
            workers=2, policy=policy, on_error="quarantine",
        )
        assert report.results == [2, None, 4, 6]
        failure = report.failures[0]
        assert failure.index == 1
        assert failure.error_type == "ValueError"
        assert "injected task failure" in failure.reason

    def test_worker_exception_fail_raises(self):
        policy = RetryPolicy(max_retries=0, backoff_s=0.0)
        with pytest.raises(ExplorationError, match="ValueError"):
            run_chunks(
                [1, -1, 2], faults.raise_on_negative,
                workers=2, policy=policy, on_error="fail",
            )

    def test_single_task_runs_serial(self):
        # One task never pays pool start-up, even with workers > 1.
        seen = []
        report = run_chunks(
            [4], faults.double, workers=8,
            on_result=lambda i, r: seen.append(i),
        )
        assert report.results == [8]
        assert seen == [0]
