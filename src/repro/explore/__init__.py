"""Design-space exploration on the vectorized batch engine.

RAT's value to a designer is what-if exploration — sweeps, crossover
bisection, Monte Carlo uncertainty bands, goal-seeking — and all of them
reduce to evaluating the worksheet equations over many candidate
designs.  This subsystem makes that evaluation fast, structured, and
resumable:

``space``
    :class:`DesignSpace`: named parameter axes over a base worksheet
    with grid / random / explicit-list sampling plans, convertible to
    scalar ``RATInput`` rows or one struct-of-arrays batch.
``executor``
    :func:`explore`: chunked, in-process evaluation on the batch
    engine's Eq (1)-(11) kernel; :func:`map_designs` for
    non-vectorizable evaluators (hardware simulation, goal-seek),
    serial or process-parallel.
``runtime``
    Failure handling: row-level quarantine with :class:`PointFailure`
    diagnostics, and :func:`run_chunks`, the dispatcher behind
    :func:`map_designs`, which records a chunk whose evaluator raised as
    a :class:`ChunkFailure`.
``checkpoint``
    :class:`ChunkJournal`: JSONL chunk journal keyed by a content hash
    of the run, so an interrupted exploration resumes from completed
    chunks with bitwise-identical results.

The ``rat explore`` CLI subcommand is a thin wrapper over
:meth:`DesignSpace.grid` + :func:`explore`.
"""

from .checkpoint import ChunkJournal, run_key
from .executor import (
    DEFAULT_CHUNK_SIZE,
    ExplorationResult,
    MapResult,
    explore,
    map_designs,
)
from .runtime import (
    ChunkFailure,
    ON_ERROR_POLICIES,
    PointFailure,
    quarantine_rows,
    run_chunks,
)
from .space import AxisSpec, DesignSpace, axis_names, axis_range

__all__ = [
    "AxisSpec",
    "ChunkFailure",
    "ChunkJournal",
    "DEFAULT_CHUNK_SIZE",
    "DesignSpace",
    "ExplorationResult",
    "MapResult",
    "ON_ERROR_POLICIES",
    "PointFailure",
    "axis_names",
    "axis_range",
    "explore",
    "map_designs",
    "quarantine_rows",
    "run_chunks",
    "run_key",
]
