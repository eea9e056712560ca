"""Fault-injection suite: crashing workers, hung chunks, killed runs.

Only :func:`run_chunks` and :func:`map_designs` run chunks in a process
pool, so only they meet crashed or hung workers; :func:`explore` meets
a killed run, covered by the checkpoint test at the end.

These tests crash and hang real worker processes on purpose, so they are
marked ``faults`` (deselect with ``-m "not faults"``).  Timings are kept
small: the slowest path is one pool-termination cycle per injected hang.
"""

import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from repro.explore import (
    DesignSpace,
    RetryPolicy,
    explore,
    map_designs,
    run_chunks,
)

from . import faults

pytestmark = pytest.mark.faults

_REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _fast_policy(**kwargs):
    kwargs.setdefault("max_retries", 2)
    kwargs.setdefault("backoff_s", 0.0)
    return RetryPolicy(**kwargs)


class TestPoolCrashRecovery:
    def test_broken_pool_blames_exactly_the_culprit(self):
        # Worker death breaks every in-flight future; suspect probing
        # must pin the failure on the one crashing task without burning
        # the innocent tasks' retry budgets.
        tasks = [1, -1, 2, 3, 4, 5]
        report = run_chunks(
            tasks, faults.exit_on_negative,
            workers=2, policy=_fast_policy(max_retries=0),
            on_error="quarantine",
        )
        assert report.failed_indices == {1}
        assert report.failures[0].error_type == "BrokenProcessPool"
        assert [report.results[i] for i in (0, 2, 3, 4, 5)] == [2, 4, 6, 8, 10]
        assert not report.degraded

    def test_transient_crash_recovered_by_retry(self, tmp_path):
        token = str(tmp_path / "crashed.token")
        report = run_chunks(
            [1, -1, 2, 3], partial(faults.exit_once_on_negative, token=token),
            workers=2, policy=_fast_policy(), on_error="quarantine",
        )
        assert report.results == [2, -2, 4, 6]
        assert report.failures == []
        assert os.path.exists(token)

    def test_uncharged_reruns_count_as_retries(self, tmp_path):
        # The crash breaks both in-flight chunks: neither is charged
        # (the culprit is unknown until probed), but both run again.
        report = run_chunks(
            [-1, 0],
            partial(faults.exit_once_or_nap, token=str(tmp_path / "c.token")),
            workers=2, policy=_fast_policy(max_retries=0),
            on_error="quarantine",
        )
        assert report.results == [-2, 0]
        assert report.failures == []
        assert report.retries == 2

    def test_persistent_pool_death_degrades_to_serial(self):
        # exit_in_worker kills every pool worker but runs fine in the
        # parent: after repeated pool breaks the engine must finish the
        # work in-process rather than respawn forever.
        tasks = [1, 2, 3, 4]
        report = run_chunks(
            tasks, faults.exit_in_worker,
            workers=2, policy=_fast_policy(max_retries=5),
            on_error="quarantine",
        )
        assert report.degraded
        assert report.results == [2, 4, 6, 8]
        assert report.failures == []


class TestHangDetection:
    def test_hung_chunk_times_out_and_is_reported(self):
        report = run_chunks(
            [1, -1, 2, 3], faults.sleep_on_negative,
            workers=2,
            policy=_fast_policy(max_retries=0, timeout_s=1.0),
            on_error="quarantine",
        )
        assert report.failed_indices == {1}
        failure = report.failures[0]
        assert failure.error_type == "TimeoutError"
        assert "no result within 1 s" in failure.reason
        assert [report.results[i] for i in (0, 2, 3)] == [2, 4, 6]

    def test_transient_hang_recovered_by_retry(self, tmp_path):
        token = str(tmp_path / "hung.token")
        report = run_chunks(
            [1, -1, 2], partial(faults.sleep_once_on_negative, token=token),
            workers=2,
            policy=_fast_policy(max_retries=1, timeout_s=1.0),
            on_error="quarantine",
        )
        assert report.results == [2, -2, 4]
        assert report.failures == []
        assert report.retries >= 1


class TestMapDesignsUnderFaults:
    def test_acceptance_crash_and_hang(self, tmp_path, pdf1d_rat):
        """A pool run survives one crashed and one hung worker.

        The evaluator crashes its worker on the first evaluation of one
        design and hangs on the first evaluation of another.  The run
        must complete under ``on_error="quarantine"`` with no failed
        chunk, and its results must equal a clean serial run's.
        Invalid designs fail their chunk here; row quarantine is
        covered in ``test_quarantine.py``.
        """
        n = 20_000
        rng = np.random.default_rng(42)
        clocks = rng.uniform(50.0, 300.0, size=n)
        clocks[150] = faults.CRASH_HZ / 1e6  # in the first chunk
        clocks[12_345] = faults.HANG_HZ / 1e6
        space = DesignSpace(
            base=pdf1d_rat, axes=("clock_mhz",), values=clocks.reshape(-1, 1)
        )
        result = map_designs(
            space,
            partial(
                faults.faulty_eval,
                crash_token=str(tmp_path / "crash.token"),
                hang_token=str(tmp_path / "hang.token"),
            ),
            chunk_size=1_000,
            workers=2,
            on_error="quarantine",
            retry=_fast_policy(max_retries=2, timeout_s=2.0),
            detail=True,
        )
        assert (tmp_path / "crash.token").exists()
        assert (tmp_path / "hang.token").exists()
        assert result.chunk_failures == ()  # crash + hang both recovered
        assert result.retries >= 1
        assert not result.degraded
        assert result.indices.tolist() == list(range(n))
        clean = map_designs(space, faults.t_rc_eval, chunk_size=1_000)
        assert result.results == clean


class TestKilledRunResume:
    def test_killed_checkpointed_run_resumes_bitwise_identical(
        self, tmp_path, pdf1d_rat
    ):
        """Actually kill an exploring process mid-run, then resume.

        The child process journals chunks serially until the marker
        chunk ``os._exit``s the whole interpreter — the checkpoint's
        torn-state story, not a simulation of it.
        """
        journal = tmp_path / "killed.jsonl"
        script = f"""
import os
import sys
sys.path.insert(0, {os.path.join(_REPO, "src")!r})
import numpy as np
import repro.explore.executor as executor
from repro.apps.registry import get_case_study
from repro.explore import explore, DesignSpace
kernel = executor._predict_into
def kill_on_marker(batch, mode, out):
    if (batch.clock_hz == 333.5e6).any():
        os._exit(1)
    kernel(batch, mode, out)
executor._predict_into = kill_on_marker
base = get_case_study("pdf1d").rat
clocks = np.linspace(50.0, 300.0, 50)
clocks[32] = 333.5  # the kill marker: dies in chunk 6 of 10
space = DesignSpace(base=base, axes=("clock_mhz",),
                    values=clocks.reshape(-1, 1))
explore(space, chunk_size=5, checkpoint={str(journal)!r})
"""
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        clocks = np.linspace(50.0, 300.0, 50)
        clocks[32] = 333.5
        space = DesignSpace(
            base=pdf1d_rat, axes=("clock_mhz",),
            values=clocks.reshape(-1, 1),
        )
        resumed = explore(
            space, chunk_size=5, checkpoint=journal, resume=True
        )
        assert resumed.resumed_chunks == 6  # chunks 0-5 survived the kill
        clean = explore(space, chunk_size=5)
        for name in ("t_rc", "speedup", "t_comm", "t_comp"):
            assert (
                getattr(resumed.prediction, name).tobytes()
                == getattr(clean.prediction, name).tobytes()
            )
