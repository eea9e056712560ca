"""Fault-injection suite: a pool worker that dies mid-run.

Only :func:`map_designs`, through :func:`run_chunks`, runs chunks in a
process pool, so only it meets a dead worker.  It does not retry or
respawn: the run raises :class:`ExplorationError` under every
``on_error`` policy, with the chunks completed so far in ``partial``
and in the checkpoint journal, and ``resume=True`` finishes the rest.
The killed-run resume of :func:`explore` is in ``test_checkpoint.py``.

These tests kill real worker processes on purpose, so they are marked
``faults`` (deselect with ``-m "not faults"``).
"""

import time
from functools import partial

import numpy as np
import pytest

from repro.errors import ExplorationError
from repro.explore import DesignSpace, MapResult, map_designs, run_chunks

from . import faults

pytestmark = pytest.mark.faults

#: Designs and chunk size of the crashing run: six chunks, the marker
#: design in the last one.
N = 24
CHUNK = 4


class TestWorkerDeath:
    def test_death_during_submission_raises(self):
        # With this many tasks the pool usually breaks while they are
        # still being submitted, so submit() itself raises.
        tasks = [-1] + list(range(50_000))
        with pytest.raises(ExplorationError, match="pool worker died") as info:
            run_chunks(
                tasks, faults.exit_on_negative,
                workers=2, on_error="quarantine",
            )
        done = info.value.partial
        assert done[0] is None
        assert all(r in (None, 2 * t) for r, t in zip(done, tasks))

    @pytest.mark.parametrize("on_error", ["fail", "skip", "quarantine"])
    def test_dead_worker_raises_and_resume_completes(
        self, tmp_path, pdf1d_rat, on_error
    ):
        clocks = np.linspace(50.0, 300.0, N)
        clocks[N - 2] = faults.CRASH_HZ / 1e6
        space = DesignSpace(
            base=pdf1d_rat, axes=("clock_mhz",), values=clocks.reshape(-1, 1)
        )
        evaluator = partial(
            faults.exit_once_eval, token=str(tmp_path / "crash.token")
        )
        run = partial(
            map_designs, space, evaluator, workers=2, chunk_size=CHUNK,
            on_error=on_error, checkpoint=tmp_path / "run.jsonl",
        )
        started = time.monotonic()
        with pytest.raises(ExplorationError, match="pool worker died") as info:
            run()
        assert time.monotonic() - started < 30.0
        assert (tmp_path / "crash.token").exists()

        clean = map_designs(space, faults.t_rc_eval, chunk_size=CHUNK)
        done = info.value.partial
        assert isinstance(done, MapResult)
        assert done.chunk_failures == ()
        indices = done.indices.tolist()
        # Whole chunks, none of them the crashing one.
        assert indices and len(indices) % CHUNK == 0
        assert N - 2 not in indices
        assert done.results == [clean[i] for i in indices]

        resumed = run(resume=True, detail=True)
        assert resumed.resumed_chunks == len(indices) // CHUNK
        assert resumed.results == clean
        assert resumed.indices.tolist() == list(range(N))
