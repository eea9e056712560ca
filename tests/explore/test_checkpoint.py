"""Checkpoint journal tests: run keys, journal format, resume semantics."""

import json
import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from repro.core.buffering import BufferingMode
from repro.errors import ExplorationError, ParameterError
from repro.explore import ChunkJournal, DesignSpace, explore, map_designs, run_key
from repro.explore.checkpoint import JOURNAL_VERSION

from tests.conftest import assert_matches_scalar

from . import faults

_REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _space(base, n=30):
    return DesignSpace.random(
        base, n, seed=5, clock_mhz=(50, 300), alpha=(0.1, 0.9)
    )


class TestRunKey:
    def test_deterministic(self, pdf1d_rat):
        space = _space(pdf1d_rat)
        key = run_key(space, BufferingMode.SINGLE, 10, "fail")
        assert key == run_key(space, BufferingMode.SINGLE, 10, "fail")

    def test_sensitive_to_every_ingredient(self, pdf1d_rat):
        space = _space(pdf1d_rat)
        base = run_key(space, BufferingMode.SINGLE, 10, "fail")
        assert base != run_key(space, BufferingMode.DOUBLE, 10, "fail")
        assert base != run_key(space, BufferingMode.SINGLE, 11, "fail")
        assert base != run_key(space, BufferingMode.SINGLE, 10, "skip")
        assert base != run_key(
            space, BufferingMode.SINGLE, 10, "fail", evaluator="f"
        )

    def test_sensitive_to_values_bits(self, pdf1d_rat):
        space = _space(pdf1d_rat)
        nudged = DesignSpace(
            base=space.base,
            axes=space.axes,
            values=np.nextafter(space.values, np.inf),
        )
        assert run_key(space, BufferingMode.SINGLE, 10, "fail") != run_key(
            nudged, BufferingMode.SINGLE, 10, "fail"
        )

    def test_same_for_row_and_column_major_values(self, pdf1d_rat):
        # Spaces store values column-major; a journal keyed on the same
        # values laid out row-major must still resume.
        space = _space(pdf1d_rat)
        row_major = DesignSpace(space.base, space.axes, space.values)
        object.__setattr__(
            row_major, "values", np.ascontiguousarray(space.values)
        )
        assert not row_major.values.flags.f_contiguous
        assert run_key(space, BufferingMode.SINGLE, 10, "fail") == run_key(
            row_major, BufferingMode.SINGLE, 10, "fail"
        )

    def test_sensitive_to_base_worksheet(self, pdf1d_rat, pdf2d_rat):
        assert run_key(
            _space(pdf1d_rat), BufferingMode.SINGLE, 10, "fail"
        ) != run_key(_space(pdf2d_rat), BufferingMode.SINGLE, 10, "fail")


class TestChunkJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = ChunkJournal(path, "k1")
        with journal.open(fresh=True):
            journal.append(0, {"payload": [1.5]})
            journal.append(2, {"payload": [2.5]})
        completed = ChunkJournal(path, "k1").load()
        assert completed == {0: {"payload": [1.5]}, 2: {"payload": [2.5]}}

    def test_missing_file_is_empty(self, tmp_path):
        assert ChunkJournal(tmp_path / "absent.jsonl", "k").load() == {}

    def test_fresh_truncates(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ChunkJournal(path, "k").open(fresh=True) as journal:
            journal.append(0, {"payload": []})
        with ChunkJournal(path, "k").open(fresh=True):
            pass
        assert ChunkJournal(path, "k").load() == {}

    def test_key_mismatch_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ChunkJournal(path, "old-key").open(fresh=True):
            pass
        with pytest.raises(ExplorationError, match="different run"):
            ChunkJournal(path, "new-key").load()

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            json.dumps(
                {"kind": "header", "version": JOURNAL_VERSION + 1, "key": "k"}
            )
            + "\n"
        )
        with pytest.raises(ExplorationError, match="version"):
            ChunkJournal(path, "k").load()

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ChunkJournal(path, "k").open(fresh=True) as journal:
            journal.append(0, {"payload": [1.0]})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "chunk", "index": 1, "pa')  # torn write
        assert ChunkJournal(path, "k").load() == {0: {"payload": [1.0]}}

    def test_malformed_mid_journal_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with ChunkJournal(path, "k").open(fresh=True) as journal:
            journal.append(0, {"payload": [1.0]})
        header, chunk = path.read_text().splitlines(keepends=True)
        # Garbage *between* valid records cannot be a torn tail.
        path.write_text(header + '{"kind": "chu\n' + chunk)
        with pytest.raises(ExplorationError, match="corrupt"):
            ChunkJournal(path, "k").load()

    def test_chunk_before_header_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            json.dumps({"kind": "chunk", "index": 0, "payload": []}) + "\n"
        )
        with pytest.raises(ExplorationError, match="before header"):
            ChunkJournal(path, "k").load()

    def test_append_requires_open(self, tmp_path):
        journal = ChunkJournal(tmp_path / "run.jsonl", "k")
        with pytest.raises(ExplorationError, match="not open"):
            journal.append(0, {})

    def test_non_serializable_payload(self, tmp_path):
        with ChunkJournal(tmp_path / "run.jsonl", "k").open(
            fresh=True
        ) as journal:
            with pytest.raises(ParameterError, match="JSON-serializable"):
                journal.append(0, {"payload": object()})

    def test_empty_path_rejected(self):
        with pytest.raises(ParameterError, match="non-empty"):
            ChunkJournal("", "k")


def _truncate_journal(path, keep_chunks):
    """Keep the header plus the first ``keep_chunks`` chunk records."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[: 1 + keep_chunks]))
    return len(lines) - 1 - keep_chunks


class TestExploreResume:
    def test_interrupted_run_resumes_bitwise_identical(
        self, tmp_path, pdf1d_rat
    ):
        space = _space(pdf1d_rat, 40)
        journal = tmp_path / "run.jsonl"
        clean = explore(space, chunk_size=7)
        explore(space, chunk_size=7, checkpoint=journal)
        dropped = _truncate_journal(journal, keep_chunks=3)
        assert dropped > 0
        resumed = explore(space, chunk_size=7, checkpoint=journal, resume=True)
        assert resumed.resumed_chunks == 3
        for name in ("t_rc", "speedup", "t_comm", "t_comp"):
            assert (
                getattr(resumed.prediction, name).tobytes()
                == getattr(clean.prediction, name).tobytes()
            )

    @pytest.mark.parametrize("on_error", ["quarantine", "skip"])
    def test_interrupted_run_with_invalid_points_resumes_bitwise_identical(
        self, tmp_path, pdf1d_rat, on_error
    ):
        # Chunks journal the evaluated rows; the NaN rows (quarantine)
        # or dropped rows (skip) and the failures are rebuilt from the
        # rule pass on resume.
        values = _space(pdf1d_rat, 40).values.copy()
        values[[2, 11, 30], 0] = [0.0, -5.0, float("nan")]
        space = DesignSpace(
            base=pdf1d_rat, axes=("clock_mhz", "alpha"), values=values
        )
        journal = tmp_path / "run.jsonl"
        clean = explore(space, chunk_size=7, on_error=on_error)
        explore(space, chunk_size=7, on_error=on_error, checkpoint=journal)
        _truncate_journal(journal, keep_chunks=3)
        resumed = explore(
            space, chunk_size=7, on_error=on_error, checkpoint=journal,
            resume=True,
        )
        assert resumed.resumed_chunks == 3
        for name in ("t_input", "t_output", "t_comm", "t_comp", "t_rc",
                     "speedup", "util_comp", "util_comm"):
            assert (
                getattr(resumed.prediction, name).tobytes()
                == getattr(clean.prediction, name).tobytes()
            )
        assert [(f.index, f.reason) for f in resumed.failures] == [
            (f.index, f.reason) for f in clean.failures
        ]
        assert resumed.n_failed == 3

    def test_resumed_rows_match_scalar(self, tmp_path, pdf1d_rat):
        # Replayed chunks are copied into their slices of the result
        # columns, the rest evaluated into theirs: every row is exact.
        chunk = 8
        space = DesignSpace.random(
            pdf1d_rat, 3 * chunk + 5, seed=3,
            clock_mhz=(50, 300), alpha=(0.1, 0.9),
        )
        journal = tmp_path / "run.jsonl"
        explore(space, chunk_size=chunk, checkpoint=journal)
        _truncate_journal(journal, keep_chunks=2)
        resumed = explore(
            space, chunk_size=chunk, checkpoint=journal, resume=True
        )
        assert resumed.resumed_chunks == 2
        assert_matches_scalar(
            space.to_batch(), BufferingMode.SINGLE, resumed.prediction
        )

    def test_complete_journal_resumes_everything(self, tmp_path, pdf1d_rat):
        space = _space(pdf1d_rat, 20)
        journal = tmp_path / "run.jsonl"
        first = explore(space, chunk_size=5, checkpoint=journal)
        resumed = explore(space, chunk_size=5, checkpoint=journal, resume=True)
        assert resumed.resumed_chunks == 4
        assert (
            resumed.prediction.t_rc.tobytes()
            == first.prediction.t_rc.tobytes()
        )

    def test_resume_without_checkpoint_rejected(self, pdf1d_rat):
        with pytest.raises(ParameterError, match="checkpoint"):
            explore(_space(pdf1d_rat, 4), resume=True)

    def test_changed_chunking_rejects_stale_journal(self, tmp_path, pdf1d_rat):
        space = _space(pdf1d_rat, 20)
        journal = tmp_path / "run.jsonl"
        explore(space, chunk_size=5, checkpoint=journal)
        with pytest.raises(ExplorationError, match="different run"):
            explore(space, chunk_size=4, checkpoint=journal, resume=True)

    def test_without_resume_overwrites(self, tmp_path, pdf1d_rat):
        space = _space(pdf1d_rat, 10)
        journal = tmp_path / "run.jsonl"
        explore(space, chunk_size=5, checkpoint=journal)
        again = explore(space, chunk_size=5, checkpoint=journal)
        assert again.resumed_chunks == 0

    def test_resume_after_torn_final_line(self, tmp_path, pdf1d_rat):
        space = _space(pdf1d_rat, 20)
        journal = tmp_path / "run.jsonl"
        clean = explore(space, chunk_size=5)
        explore(space, chunk_size=5, checkpoint=journal)
        _truncate_journal(journal, keep_chunks=2)
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "chunk", "index": 2, "payl')
        resumed = explore(space, chunk_size=5, checkpoint=journal, resume=True)
        assert resumed.resumed_chunks == 2
        assert (
            resumed.prediction.t_rc.tobytes()
            == clean.prediction.t_rc.tobytes()
        )


#: Grids over the 1-D PDF worksheet at 150 MHz.  The mixed one has 5 of
#: its 9 designs invalid (clock 0 or alpha 1.5).
_CLEAN_AXES = {"clock_mhz": [75.0, 150.0], "alpha": [0.25, 0.5, 1.0]}
_MIXED_AXES = {"clock_mhz": [0.0, 75.0, 150.0], "alpha": [0.25, 1.5, 0.5]}

#: run_key at chunk size 2, single buffering, of journals written while
#: quarantine chunks covered the valid rows only: (axes, policy) -> key.
#: fail and skip journals keep their keys and still resume; the
#: quarantine key had to move.  Pinned here so that a change to any key
#: is deliberate, not a JOURNAL_VERSION bump for every policy.
_OLD_LAYOUT_KEYS = {
    ("clean", "fail"):
        "9a82e3cb621e8c9d3b085bd63a4d1660c41c77ed40908339c154ecb24def71e1",
    ("mixed", "fail"):
        "f7f2cb939495602686b340d55e59b71b377464215c49cd03e1513f84bca569da",
    ("mixed", "skip"):
        "44f3b5bfa0ab2d5279ef49d5f5fd798cc23c52bdecedfc10db1a97a180d95eb7",
    ("mixed", "quarantine"):
        "ba6ae9d7e714715106d25ed4ba9e19fca17e244e310a49268178503aad1711c2",
}
#: The mixed grid's map_designs quarantine key, evaluator name "f".
_OLD_MAP_QUARANTINE_KEY = (
    "5592a463740d191b69b607d12a58d211ce3c170305f36302c3efc99f5c89e949"
)

_FIELDS = ("t_input", "t_output", "t_comm", "t_comp", "t_rc", "speedup",
           "util_comp", "util_comm")


def _layout_space(base, which):
    return DesignSpace.grid(
        base, **(_CLEAN_AXES if which == "clean" else _MIXED_AXES)
    )


def _assert_same_bits(got, want):
    for name in _FIELDS:
        assert (
            getattr(got.prediction, name).tobytes()
            == getattr(want.prediction, name).tobytes()
        ), name


class TestJournalLayout:
    @pytest.mark.parametrize("which, on_error", [
        ("clean", "fail"), ("mixed", "fail"), ("mixed", "skip"),
    ])
    def test_fail_and_skip_keys_unchanged(self, pdf1d_rat, which, on_error):
        space = _layout_space(pdf1d_rat, which)
        assert run_key(space, BufferingMode.SINGLE, 2, on_error) == (
            _OLD_LAYOUT_KEYS[which, on_error]
        )

    def test_only_the_explore_quarantine_key_moved(self, pdf1d_rat):
        space = _layout_space(pdf1d_rat, "mixed")
        key = run_key(space, BufferingMode.SINGLE, 2, "quarantine")
        assert key not in _OLD_LAYOUT_KEYS.values()
        # map_designs quarantine chunks kept their layout, and their key.
        assert run_key(
            space, BufferingMode.SINGLE, 2, "quarantine", evaluator="f"
        ) == _OLD_MAP_QUARANTINE_KEY

    @pytest.mark.parametrize("which, on_error", [
        ("clean", "fail"), ("mixed", "skip"),
    ])
    def test_old_key_journals_resume_bitwise(
        self, tmp_path, pdf1d_rat, which, on_error
    ):
        space = _layout_space(pdf1d_rat, which)
        journal = tmp_path / "run.jsonl"
        clean = explore(space, chunk_size=2, on_error=on_error)
        explore(space, chunk_size=2, on_error=on_error, checkpoint=journal)
        header = json.loads(journal.read_text().splitlines()[0])
        assert header["key"] == _OLD_LAYOUT_KEYS[which, on_error]
        _truncate_journal(journal, keep_chunks=1)
        resumed = explore(
            space, chunk_size=2, on_error=on_error, checkpoint=journal,
            resume=True,
        )
        assert resumed.resumed_chunks == 1
        _assert_same_bits(resumed, clean)

    def test_old_layout_quarantine_journal_refused(self, tmp_path, pdf1d_rat):
        # The old layout's quarantine chunks were the valid rows only,
        # exactly the chunks a skip run journals.  Replayed into the
        # in-place layout they would land on the wrong rows.
        space = _layout_space(pdf1d_rat, "mixed")
        journal = tmp_path / "old.jsonl"
        explore(space, chunk_size=2, on_error="skip", checkpoint=journal)
        lines = journal.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["key"] = _OLD_LAYOUT_KEYS["mixed", "quarantine"]
        journal.write_text(
            json.dumps(header, sort_keys=True) + "\n" + "".join(lines[1:])
        )
        with pytest.raises(ExplorationError, match="different run"):
            explore(
                space, chunk_size=2, on_error="quarantine",
                checkpoint=journal, resume=True,
            )

    def test_quarantine_journal_holds_every_row_nan_where_failed(
        self, tmp_path, pdf1d_rat
    ):
        space = _layout_space(pdf1d_rat, "mixed")
        journal = tmp_path / "run.jsonl"
        clean = explore(space, chunk_size=2, on_error="quarantine")
        explore(
            space, chunk_size=2, on_error="quarantine", checkpoint=journal
        )
        chunks = [
            json.loads(line)["payload"]["payload"]
            for line in journal.read_text().splitlines()[1:]
        ]
        assert len(chunks) == 5  # ceil(9 / 2): every design row
        failed = [f.index for f in clean.failures]
        assert failed == [0, 1, 2, 4, 7]
        for column, name in enumerate(_FIELDS):
            rows = [value for chunk in chunks for value in chunk[column]]
            assert len(rows) == len(space)
            nan = [i for i, value in enumerate(rows) if value != value]
            assert nan == failed, name
        resumed = explore(
            space, chunk_size=2, on_error="quarantine", checkpoint=journal,
            resume=True,
        )
        assert resumed.resumed_chunks == 5
        _assert_same_bits(resumed, clean)
        assert resumed.failures == clean.failures


class TestMapDesignsResume:
    def test_resume_replays_chunks(self, tmp_path, pdf1d_rat):
        space = _space(pdf1d_rat, 12)
        journal = tmp_path / "map.jsonl"
        first = map_designs(
            space, faults.t_rc_eval, chunk_size=3, checkpoint=journal
        )
        resumed = map_designs(
            space, faults.t_rc_eval, chunk_size=3,
            checkpoint=journal, resume=True, detail=True,
        )
        assert resumed.resumed_chunks == 4
        assert resumed.results == first

    def test_journal_is_evaluator_specific(self, tmp_path, pdf1d_rat):
        space = _space(pdf1d_rat, 6)
        journal = tmp_path / "map.jsonl"
        map_designs(space, faults.t_rc_eval, chunk_size=3, checkpoint=journal)
        with pytest.raises(ExplorationError, match="different run"):
            map_designs(
                space, faults.raise_on_slow_clock_eval, chunk_size=3,
                checkpoint=journal, resume=True,
            )


@pytest.mark.faults
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
