"""Checkpoint/resume journal for long exploration runs.

A checkpointed :func:`~repro.explore.executor.explore` (or
``map_designs``) run appends one JSONL record per *completed chunk* to a
journal file.  If the run dies — Ctrl-C, the OOM killer, or a
``map_designs`` pool worker crashing, which raises
:class:`~repro.errors.ExplorationError` — re-running with
``resume=True`` replays the completed chunks from the journal and only
evaluates the rest.  This is the recovery path for a dead worker: the
dispatcher does not retry or respawn.  Because
Python's ``repr``-based JSON float serialization round-trips IEEE-754
doubles exactly, a killed-then-resumed run produces *bitwise-identical*
predictions to an uninterrupted one (pinned by
``tests/explore/test_checkpoint.py``).

File format (one JSON object per line)::

    {"kind": "header", "version": 1, "key": "<sha256>", "chunks": 16}
    {"kind": "chunk", "index": 3, "payload": {...}}
    ...

The ``key`` is a content hash of everything that determines the chunk
layout and the numbers: the base worksheet, the axis names and values,
the buffering mode, the chunk size, and the failure policy.  Resuming
against a journal whose key differs (the space changed, the chunk size
changed) raises :class:`~repro.errors.ExplorationError` rather than
silently mixing incompatible partial results.  A torn final line — the
classic crash-mid-write artifact — is ignored on load.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from typing import Any, Iterator

import numpy as np

from ..core.buffering import BufferingMode
from ..errors import ExplorationError, ParameterError
from .space import DesignSpace

__all__ = ["ChunkJournal", "JOURNAL_VERSION", "run_key"]

JOURNAL_VERSION = 1

#: Design rows per block hashed by :func:`run_key`.
_HASH_ROWS = 65536


def run_key(
    space: DesignSpace,
    mode: BufferingMode,
    chunk_size: int,
    on_error: str,
    *,
    evaluator: str = "",
) -> str:
    """Content hash identifying one resumable run's chunk layout.

    Two calls agree iff they would evaluate the same numbers into the
    same chunks: same base worksheet, axes, axis values (hashed from the
    raw float64 bytes, so bit-level changes count), buffering mode,
    chunk size, and on_error policy.  ``evaluator`` distinguishes
    ``map_designs`` journals (it carries the evaluator's qualified name)
    from batch-predict journals.

    An ``explore()`` quarantine journal's chunks cover every design row,
    failed rows as NaN; they once covered the valid rows only, so its
    key hashes one more field and a journal of the old layout is
    refused.  Every other key is unchanged.
    """
    # The C-order bytes of ``values``, hashed a block of rows at a time
    # (a grid's read from its axes), so no n x k matrix is built.
    values_sha = hashlib.sha256()
    n = len(space)
    for lo in range(0, n, _HASH_ROWS):
        block = space.values_at(np.arange(lo, min(lo + _HASH_ROWS, n)))
        values_sha.update(block.astype("<f8", copy=False).tobytes(order="C"))
    fields = {
        "version": JOURNAL_VERSION,
        "base": space.base.to_dict(),
        "axes": list(space.axes),
        "values_sha": values_sha.hexdigest(),
        "mode": mode.value,
        "chunk_size": int(chunk_size),
        "on_error": on_error,
        "evaluator": evaluator,
    }
    if on_error == "quarantine" and not evaluator:
        fields["rows"] = "all"
    payload = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ChunkJournal:
    """Append-only JSONL record of completed chunks for one run key.

    Lifecycle: construct with the journal path and the run's
    :func:`run_key`; call :meth:`load` to recover completed chunks (and
    validate the key) when resuming, then :meth:`open` to start
    appending; call :meth:`append` from the executor's completion
    callback; :meth:`close` when the run finishes.  Safe to use as a
    context manager.
    """

    def __init__(self, path: str | os.PathLike, key: str) -> None:
        if not str(path):
            raise ParameterError("checkpoint path must be non-empty")
        self.path = os.fspath(path)
        self.key = key
        self._handle: io.TextIOWrapper | None = None

    # ---- reading -----------------------------------------------------------

    def _records(self) -> Iterator[dict]:
        """Parse existing journal lines, tolerating a torn final line."""
        with open(self.path, encoding="utf-8") as handle:
            previous = None
            for line in handle:
                try:
                    record = json.loads(line)
                except ValueError:
                    # A malformed line is only acceptable as the torn
                    # tail of a crash-interrupted write; remember it and
                    # complain if anything follows.
                    previous = line
                    continue
                if previous is not None:
                    raise ExplorationError(
                        f"checkpoint {self.path!r} is corrupt: malformed "
                        "line in the middle of the journal"
                    )
                yield record

    def load(self) -> dict[int, Any]:
        """Completed ``{chunk_index: payload}`` records, or ``{}``.

        A missing file is an empty (fresh) journal.  A journal written
        for a different run key raises ``ExplorationError`` — resuming
        it would splice numbers from a different space/mode/chunking
        into this run.
        """
        if not os.path.exists(self.path):
            return {}
        completed: dict[int, Any] = {}
        saw_header = False
        for record in self._records():
            kind = record.get("kind")
            if kind == "header":
                if record.get("key") != self.key:
                    raise ExplorationError(
                        f"checkpoint {self.path!r} was written for a "
                        "different run (space, mode, chunking, or policy "
                        "changed); delete it or point --checkpoint at a "
                        "fresh path"
                    )
                if record.get("version") != JOURNAL_VERSION:
                    raise ExplorationError(
                        f"checkpoint {self.path!r} has journal version "
                        f"{record.get('version')!r}; this build reads "
                        f"version {JOURNAL_VERSION}"
                    )
                saw_header = True
            elif kind == "chunk":
                if not saw_header:
                    raise ExplorationError(
                        f"checkpoint {self.path!r} is corrupt: chunk "
                        "record before header"
                    )
                completed[int(record["index"])] = record["payload"]
        if completed and not saw_header:  # pragma: no cover - defensive
            raise ExplorationError(
                f"checkpoint {self.path!r} is corrupt: no header record"
            )
        return completed

    # ---- writing -----------------------------------------------------------

    def open(self, *, fresh: bool) -> "ChunkJournal":
        """Start journaling: truncate + write header, or append.

        ``fresh=True`` starts a new journal (overwriting any existing
        file); ``fresh=False`` appends to a journal :meth:`load` already
        validated, writing the header only if the file does not exist
        yet.
        """
        exists = os.path.exists(self.path)
        mode = "w" if fresh or not exists else "a"
        self._handle = open(self.path, mode, encoding="utf-8")
        if mode == "w":
            self._write(
                {
                    "kind": "header",
                    "version": JOURNAL_VERSION,
                    "key": self.key,
                }
            )
        return self

    def append(self, index: int, payload: Any) -> None:
        """Record one completed chunk (flushed immediately)."""
        if self._handle is None:
            raise ExplorationError("journal is not open for writing")
        try:
            self._write({"kind": "chunk", "index": index, "payload": payload})
        except TypeError as exc:
            raise ParameterError(
                "checkpoint payloads must be JSON-serializable; "
                f"chunk {index} is not: {exc}"
            ) from exc

    def _write(self, record: dict) -> None:
        assert self._handle is not None
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the append handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ChunkJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
