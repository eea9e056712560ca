"""Vectorized batch evaluation of the RAT equations (1)-(11).

:func:`repro.core.throughput.predict` evaluates one worksheet at a time;
profiling shows dataclass construction and attribute chasing dominate its
cost, capping what-if exploration at roughly 10k-100k design points per
second.  This module is the struct-of-arrays counterpart: a
:class:`BatchInput` holds one numpy column per worksheet field, and
:func:`batch_predict` applies the paper's equations to every row at once.

Two invariants make the batch path a drop-in backend for the analysis
layer:

* **Bitwise agreement.**  Every formula is written with the exact same
  operation order as the scalar functions in
  :mod:`repro.core.throughput`, so each row of a batch result is the
  IEEE-754-identical value the scalar path would produce (compared
  exactly by ``tests/core/test_batch.py`` and ``tests/core/test_plan.py``,
  and relied upon by ``crossover_block_size``'s lattice search).
* **Round-tripping.**  :meth:`BatchInput.from_inputs` /
  :meth:`BatchInput.row` convert losslessly to and from the scalar
  :class:`~repro.core.params.RATInput`, and
  :meth:`BatchPrediction.row` rehydrates a scalar
  :class:`~repro.core.throughput.ThroughputPrediction`, so callers can
  keep their scalar result types while computing in bulk.

The equations have one array statement in two halves:
:func:`_transfer_compute` (Eqs (1)-(4)) and :func:`_iteration`
(Eqs (5)-(11)).  Two evaluation orders share it.  :func:`_predict_into`
runs both halves row by row, tile by tile, into result columns its
caller supplies: :func:`batch_predict` hands it freshly allocated
columns the caller then owns, :class:`~repro.core.plan.PredictionPlan`
hands it plan-owned buffers it reuses across calls, and
:func:`repro.explore.explore` hands it each chunk's slices of the
exploration's result columns.  :class:`GridKernel` evaluates a full
cross product of axis values: Eqs (1)-(4) once, on the axes they depend
on, then per chunk, their terms broadcast into the chunk's slices and
Eqs (5)-(11) over them.

Validation mirrors the scalar dataclasses' ``__post_init__`` checks but
runs vectorized; the first offending row is named in the error message.
For fault-tolerant callers, ``check=False`` defers validation and
:func:`violation_columns` makes one rule pass that reports *per-row*
diagnostics as columns — each invalid row, the first rule it breaks and
the offending value — instead of aborting on the first bad row: the
basis of the exploration layer's row-level quarantine.
:func:`row_violations` and :func:`valid_row_mask` read the same pass
(same rule set, same message text as the scalar validators).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import ParameterError
from ..obs import get_metrics, get_tracer
from .buffering import BufferingMode
from .params import (
    CommunicationParams,
    ComputationParams,
    DatasetParams,
    RATInput,
    SoftwareParams,
    at_least_one_violation,
    fraction_violation,
    nonnegative_violation,
    positive_violation,
)
from .throughput import ThroughputPrediction

__all__ = [
    "DEFAULT_TILE",
    "BatchInput",
    "BatchPrediction",
    "GridKernel",
    "RowViolation",
    "batch_predict",
    "mark_rows_valid",
    "row_violations",
    "valid_row_mask",
    "violation_columns",
]

#: BatchInput array-column names, in worksheet order.  All values are SI
#: (bytes, bytes/s, Hz, seconds) — the same convention as the scalar
#: parameter dataclasses, *not* the worksheet's MB/s / MHz display units.
_COLUMNS = (
    "elements_in",
    "elements_out",
    "bytes_per_element",
    "ideal_bandwidth",
    "alpha_write",
    "alpha_read",
    "ops_per_element",
    "throughput_proc",
    "clock_hz",
    "t_soft",
    "n_iterations",
)

#: Result columns, in :class:`BatchPrediction` field order.
_RESULT_COLUMNS = (
    "t_input",
    "t_output",
    "t_comm",
    "t_comp",
    "t_rc",
    "speedup",
    "util_comp",
    "util_comm",
)

#: Rows per kernel tile.  ~19 live views of this length (11 inputs,
#: 8 results) must stay resident while a tile is processed: 8192
#: float64 rows keep the working set around 1.3 MB — inside L2 on
#: anything current — while leaving each ufunc call long enough that
#: numpy dispatch overhead stays negligible.
DEFAULT_TILE = 8192


def _as_column(name: str, values: object, n: int) -> np.ndarray:
    """Coerce one field to a float64 column of length ``n``.

    A scalar becomes a read-only zero-stride view of its one value, so a
    constant column costs no memory and no fill pass.
    """
    array = np.asarray(values, dtype=np.float64)
    if array.ndim == 0:
        array = np.broadcast_to(array, (n,))
    if array.ndim != 1:
        raise ParameterError(
            f"{name} must be scalar or 1-D, got shape {array.shape}"
        )
    if array.shape[0] != n:
        raise ParameterError(
            f"{name} has {array.shape[0]} rows, expected {n}"
        )
    return array


def _count(value: float) -> int | float:
    """A count column's value for a worksheet (see :meth:`BatchInput.row`)."""
    value = float(value)
    return int(value) if value >= 1 and value.is_integer() else value


def _base_values(base: RATInput) -> dict[str, float]:
    """The base worksheet's value of every column, SI, as Python floats."""
    return {
        "elements_in": float(base.dataset.elements_in),
        "elements_out": float(base.dataset.elements_out),
        "bytes_per_element": float(base.dataset.bytes_per_element),
        "ideal_bandwidth": float(base.communication.ideal_bandwidth),
        "alpha_write": float(base.communication.alpha_write),
        "alpha_read": float(base.communication.alpha_read),
        "ops_per_element": float(base.computation.ops_per_element),
        "throughput_proc": float(base.computation.throughput_proc),
        "clock_hz": float(base.computation.clock_hz),
        "t_soft": float(base.software.t_soft),
        "n_iterations": float(base.software.n_iterations),
    }


def _check_column_name(name: str) -> None:
    if name not in _COLUMNS:
        raise ParameterError(
            f"unknown batch column {name!r}; known: {sorted(_COLUMNS)}"
        )


# Valid-row masks, one per rule kind.  Each is the scalar rule in two
# comparisons: NaN fails every comparison, and an infinity fails the
# bound on its side (``< inf``, ``> 0`` or ``<= 1``), so no separate
# finiteness pass is needed.


def _ok_positive(column: np.ndarray) -> np.ndarray:
    return (column > 0) & (column < np.inf)


def _ok_nonnegative(column: np.ndarray) -> np.ndarray:
    return (column >= 0) & (column < np.inf)


def _ok_fraction(column: np.ndarray) -> np.ndarray:
    return (column > 0) & (column <= 1)


def _ok_at_least_one(column: np.ndarray) -> np.ndarray:
    return (column >= 1) & (column < np.inf)


#: One entry per validated column, in worksheet column order — the order
#: the scalar ``RATInput`` groups check their fields, so a row breaking
#: several rules is diagnosed by the rule scalar validation raises:
#: (column name, vectorized valid-row mask, scalar message formatter).
#: The formatters are the exact ones the scalar parameter dataclasses
#: raise with, so batch diagnostics match scalar ``ParameterError`` text.
_ROW_RULES: tuple[
    tuple[
        str,
        Callable[[np.ndarray], np.ndarray],
        Callable[[str, float], str | None],
    ],
    ...,
] = (
    ("elements_in", _ok_positive, positive_violation),
    ("elements_out", _ok_nonnegative, nonnegative_violation),
    ("bytes_per_element", _ok_positive, positive_violation),
    ("ideal_bandwidth", _ok_positive, positive_violation),
    ("alpha_write", _ok_fraction, fraction_violation),
    ("alpha_read", _ok_fraction, fraction_violation),
    ("ops_per_element", _ok_positive, positive_violation),
    ("throughput_proc", _ok_positive, positive_violation),
    ("clock_hz", _ok_positive, positive_violation),
    ("t_soft", _ok_positive, positive_violation),
    ("n_iterations", _ok_at_least_one, at_least_one_violation),
)


@dataclass(frozen=True)
class RowViolation:
    """One invalid row of a :class:`BatchInput`, with its diagnosis.

    ``message`` is byte-identical to the ``ParameterError`` the scalar
    parameter dataclasses would raise for the same value, so quarantine
    reports read the same as scalar validation failures.
    """

    row: int
    column: str
    value: float
    message: str


def _rule_columns(
    batch: "BatchInput",
) -> Iterator[tuple[int, np.ndarray]]:
    """``(rule, column)`` for each rule pass ``batch`` needs.

    ``rule`` indexes :data:`_ROW_RULES`, in its order.  A ``broadcast``
    column (all rows equal) is passed as its first row only, so its
    pass checks one value that stands for every row.  A column object
    two fields share (the ``alpha`` axis writes one array to both
    alphas) is checked once per rule, under the first field.
    """
    seen: set[tuple[int, Callable]] = set()
    for rule, (name, ok_fn, _) in enumerate(_ROW_RULES):
        column = getattr(batch, name)
        if (id(column), ok_fn) not in seen:
            seen.add((id(column), ok_fn))
            yield rule, column[:1] if name in batch.broadcast else column


def violation_columns(
    batch: "BatchInput",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one rule pass: ``(rows, rules, values)`` of every invalid row.

    Each array has one entry per invalid row: the rows in ascending
    order, the first rule each row breaks (an index into
    :data:`_ROW_RULES`, whose worksheet column order is the order
    scalar validation raises in), and the offending value.  All three
    are fresh arrays, never views of the batch's columns.

    Each distinct column is read once, into one combined mask.  When
    that mask is clean the pass ends there with three empty arrays;
    otherwise each rule that failed some row claims, among the invalid
    rows only, those no earlier rule claimed.
    """
    n = len(batch)
    passes = []
    ok = np.ones(n, dtype=bool)
    for rule, column in _rule_columns(batch):
        rule_ok = _ROW_RULES[rule][1](column)
        passes.append((rule, column, rule_ok))
        if rule_ok.shape[0] < n:  # a broadcast column's one row
            if not rule_ok[0]:
                ok.fill(False)
        else:
            ok &= rule_ok
    rows = np.flatnonzero(~ok)
    rules = np.empty(rows.shape[0], dtype=np.intp)
    values = np.empty(rows.shape[0])
    if not rows.shape[0]:
        return rows, rules, values
    unclaimed = np.ones(rows.shape[0], dtype=bool)
    for rule, column, rule_ok in passes:
        if rule_ok.all():
            continue
        if rule_ok.shape[0] < n:  # fails every row
            hit = unclaimed.copy()
            values[hit] = column[0]
        else:
            hit = unclaimed & ~rule_ok[rows]
            values[hit] = column[rows[hit]]
        rules[hit] = rule
        unclaimed &= ~hit
    return rows, rules, values


def row_violations(batch: "BatchInput") -> list[RowViolation]:
    """Per-row validation diagnostics, sorted by row index.

    At most one violation is reported per row (the first rule, in
    worksheet column order, that the row breaks — matching which error
    the raising validator would have picked).  An empty list means every
    row would pass scalar validation.
    """
    rows, rules, values = (c.tolist() for c in violation_columns(batch))
    found: list[RowViolation] = []
    for row, rule, value in zip(rows, rules, values):
        name, _, describe = _ROW_RULES[rule]
        found.append(RowViolation(row, name, value, describe(name, value)))
    return found


def valid_row_mask(batch: "BatchInput") -> np.ndarray:
    """Boolean column: True where the row passes every validation rule."""
    ok = np.ones(len(batch), dtype=bool)
    ok[violation_columns(batch)[0]] = False
    return ok


@dataclass(frozen=True, eq=False)
class BatchInput:
    """A struct-of-arrays bundle of ``n`` RAT worksheet inputs.

    Each field is a float64 column of equal length; rows correspond to
    independent design points.  ``names`` optionally labels rows for
    reports (empty tuple means unnamed).  Instances are immutable;
    slicing with ``batch[a:b]`` returns a new view-backed batch, which is
    what the exploration executor chunks on.

    ``check=False`` defers validation: columns are still coerced and
    shape-checked, but rows that scalar validation would reject survive
    construction so fault-tolerant callers can triage them with
    :func:`row_violations` instead of losing the whole batch.  The
    ``checked`` attribute records which way an instance was built;
    :func:`batch_predict` re-validates unchecked batches so invalid rows
    can never silently flow into the equations.

    ``broadcast`` names columns whose rows are all the identical value —
    staging metadata the kernel exploits by reading such a column once
    instead of streaming it per row, and validation by checking its
    first row only.  It is a *trusted invariant*, maintained
    automatically by :meth:`from_base` (the only constructor that knows
    a column was broadcast from one scalar) and preserved by
    slicing/``take``; callers constructing batches directly must list a
    column only if every row truly holds one value, or every row is
    validated and evaluated with the column's first value and results
    silently diverge from scalar ``predict``.
    """

    elements_in: np.ndarray
    elements_out: np.ndarray
    bytes_per_element: np.ndarray
    ideal_bandwidth: np.ndarray
    alpha_write: np.ndarray
    alpha_read: np.ndarray
    ops_per_element: np.ndarray
    throughput_proc: np.ndarray
    clock_hz: np.ndarray
    t_soft: np.ndarray
    n_iterations: np.ndarray
    names: tuple[str, ...] = ()
    broadcast: frozenset[str] = frozenset()
    check: InitVar[bool] = True
    checked: bool = field(init=False, default=True)

    def __post_init__(self, check: bool) -> None:
        n = np.asarray(self.elements_in, dtype=np.float64).size
        for name in _COLUMNS:
            column = _as_column(name, getattr(self, name), n)
            object.__setattr__(self, name, column)
        if self.names and len(self.names) != n:
            raise ParameterError(
                f"names has {len(self.names)} entries, expected {n}"
            )
        broadcast = frozenset(self.broadcast)
        unknown = broadcast.difference(_COLUMNS)
        if unknown:
            raise ParameterError(
                f"unknown broadcast column(s) {sorted(unknown)}; "
                f"known: {sorted(_COLUMNS)}"
            )
        object.__setattr__(self, "broadcast", broadcast)
        object.__setattr__(self, "checked", bool(check))
        if check:
            self._validate()

    def _validate(self) -> None:
        """Vectorized mirror of the scalar dataclasses' validation.

        The error names the first invalid row, diagnosed as quarantine
        diagnoses it: by the first rule it breaks in worksheet column
        order, the order scalar validation raises in.
        """
        for rule, column in _rule_columns(self):
            if not _ROW_RULES[rule][1](column).all():
                rows, rules, values = violation_columns(self)
                name, _, describe = _ROW_RULES[int(rules[0])]
                message = describe(name, float(values[0]))
                raise ParameterError(f"{message} at row {int(rows[0])}")

    # ---- construction ------------------------------------------------------

    @classmethod
    def from_inputs(cls, inputs: Sequence[RATInput]) -> "BatchInput":
        """Transpose a sequence of scalar worksheets into columns."""
        inputs = list(inputs)
        if not inputs:
            raise ParameterError("from_inputs requires at least one input")
        return cls(
            elements_in=np.array(
                [r.dataset.elements_in for r in inputs], dtype=np.float64
            ),
            elements_out=np.array(
                [r.dataset.elements_out for r in inputs], dtype=np.float64
            ),
            bytes_per_element=np.array(
                [r.dataset.bytes_per_element for r in inputs], dtype=np.float64
            ),
            ideal_bandwidth=np.array(
                [r.communication.ideal_bandwidth for r in inputs],
                dtype=np.float64,
            ),
            alpha_write=np.array(
                [r.communication.alpha_write for r in inputs], dtype=np.float64
            ),
            alpha_read=np.array(
                [r.communication.alpha_read for r in inputs], dtype=np.float64
            ),
            ops_per_element=np.array(
                [r.computation.ops_per_element for r in inputs],
                dtype=np.float64,
            ),
            throughput_proc=np.array(
                [r.computation.throughput_proc for r in inputs],
                dtype=np.float64,
            ),
            clock_hz=np.array(
                [r.computation.clock_hz for r in inputs], dtype=np.float64
            ),
            t_soft=np.array(
                [r.software.t_soft for r in inputs], dtype=np.float64
            ),
            n_iterations=np.array(
                [r.software.n_iterations for r in inputs], dtype=np.float64
            ),
            names=tuple(r.name for r in inputs),
        )

    @classmethod
    def from_base(
        cls,
        base: RATInput,
        n: int,
        overrides: Mapping[str, object] | None = None,
        names: tuple[str, ...] = (),
        *,
        check: bool = True,
    ) -> "BatchInput":
        """``n`` copies of ``base`` with selected columns overridden.

        ``overrides`` maps column names (see the class fields; SI units)
        to scalars or length-``n`` arrays.  This is the fast constructor
        the exploration layer uses: no per-row ``RATInput`` objects are
        ever materialised.  ``check=False`` defers row validation (see
        the class docstring) for quarantine-style callers.

        Columns left at the base worksheet's value (or overridden with a
        scalar) are recorded in ``broadcast``, which lets the kernel
        read them as scalars instead of streaming ``n`` identical values
        per evaluation.
        """
        if n < 1:
            raise ParameterError(f"batch size must be >= 1, got {n}")
        columns: dict[str, object] = _base_values(base)
        broadcast = set(_COLUMNS)
        for name, values in (overrides or {}).items():
            _check_column_name(name)
            columns[name] = values
            if np.ndim(values) != 0:
                broadcast.discard(name)  # per-row values: not a broadcast
        built = {
            name: _as_column(name, values, n)
            for name, values in columns.items()
        }
        return cls(
            names=names,
            broadcast=frozenset(broadcast),
            check=check,
            **built,
        )

    # ---- conversion --------------------------------------------------------

    def row(self, i: int) -> RATInput:
        """Rehydrate row ``i`` as a scalar :class:`RATInput`.

        A count (``elements_in``, ``elements_out``, ``n_iterations``) is
        an ``int`` if it is a whole number of at least 1, else the float
        the kernel read, so the worksheet predicts the row's numbers.
        """
        return RATInput(
            name=self.names[i] if self.names else "",
            dataset=DatasetParams(
                elements_in=_count(self.elements_in[i]),
                elements_out=_count(self.elements_out[i]),
                bytes_per_element=float(self.bytes_per_element[i]),
            ),
            communication=CommunicationParams(
                ideal_bandwidth=float(self.ideal_bandwidth[i]),
                alpha_write=float(self.alpha_write[i]),
                alpha_read=float(self.alpha_read[i]),
            ),
            computation=ComputationParams(
                ops_per_element=float(self.ops_per_element[i]),
                throughput_proc=float(self.throughput_proc[i]),
                clock_hz=float(self.clock_hz[i]),
            ),
            software=SoftwareParams(
                t_soft=float(self.t_soft[i]),
                n_iterations=_count(self.n_iterations[i]),
            ),
        )

    def to_inputs(self) -> list[RATInput]:
        """Rehydrate every row (the slow path; prefer staying in arrays)."""
        return [self.row(i) for i in range(len(self))]

    # ---- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return int(self.elements_in.shape[0])

    def __getitem__(self, key: slice) -> "BatchInput":
        """Slice into a smaller batch (used by the chunked executor).

        Validation rules are row-local, so any subset of an
        already-validated batch is itself valid: slices of a checked
        batch inherit ``checked=True`` *without* re-running the rules —
        the chunked executor slices every chunk, and re-validating each
        one made validation an O(chunks) cost instead of O(1).
        """
        if not isinstance(key, slice):
            raise ParameterError(
                "BatchInput supports slice indexing only; use row(i) for "
                "scalar access"
            )
        kwargs = {name: getattr(self, name)[key] for name in _COLUMNS}
        names = self.names[key] if self.names else ()
        sliced = BatchInput(
            names=names, broadcast=self.broadcast, check=False, **kwargs
        )
        if self.checked:
            object.__setattr__(sliced, "checked", True)
        return sliced

    def take(self, indices: np.ndarray, *, check: bool | None = None) -> "BatchInput":
        """Select the rows at ``indices``.

        Streamed columns are gathered (copies); broadcast columns stay
        zero-stride views of their one value.  A column object several
        fields share (the ``alpha`` axis backs both alphas with one
        array) is gathered once, and the taken fields share the copy.
        ``check`` defaults to the batch's own ``checked`` state; the
        ``skip`` policy passes ``check=False`` and marks the rows
        :func:`violation_columns` passed valid with
        :func:`mark_rows_valid`.
        """
        indices = np.asarray(indices)
        gathered: dict[int, np.ndarray] = {}
        kwargs = {}
        for name in _COLUMNS:
            column = getattr(self, name)
            if name in self.broadcast:
                kwargs[name] = np.broadcast_to(column[:1], (len(indices),))
                continue
            if id(column) not in gathered:
                gathered[id(column)] = column[indices]
            kwargs[name] = gathered[id(column)]
        names = (
            tuple(self.names[int(i)] for i in indices) if self.names else ()
        )
        effective = self.checked if check is None else check
        return BatchInput(
            names=names, broadcast=self.broadcast, check=effective, **kwargs
        )


def mark_rows_valid(batch: BatchInput) -> BatchInput:
    """Upgrade a deferred-validation batch to ``checked`` status, trusted.

    For callers that have *already* established every row passes the
    validation rules — typically by getting no invalid rows from
    :func:`violation_columns` (or :func:`row_violations`), or by
    selecting the rows it passed — re-running ``_validate`` at predict
    time is pure duplicate work.  This marks the batch checked without
    another rule pass (mutating only the monotone ``checked`` flag) and
    returns it.  Never call it on a batch that still holds a row the
    rules reject, vetted or not: that row would reach the equations as
    silent inf/NaN.  A caller that evaluates such a batch anyway
    (quarantine keeps every row) leaves it unchecked and hands the
    kernel its failed rows, which come back NaN.
    """
    if not batch.checked:
        object.__setattr__(batch, "checked", True)
    return batch


@dataclass(frozen=True, eq=False)
class BatchPrediction:
    """Struct-of-arrays result of one :func:`batch_predict` call.

    Field semantics match :class:`~repro.core.throughput
    .ThroughputPrediction` row-wise: ``t_input``/``t_output`` are per
    iteration, ``t_rc`` covers all iterations, and the utilizations
    follow Equations (8)-(11) for the evaluated buffering mode.
    """

    batch: BatchInput
    mode: BufferingMode
    t_input: np.ndarray
    t_output: np.ndarray
    t_comm: np.ndarray
    t_comp: np.ndarray
    t_rc: np.ndarray
    speedup: np.ndarray
    util_comp: np.ndarray
    util_comm: np.ndarray

    def __len__(self) -> int:
        return int(self.t_rc.shape[0])

    def row(self, i: int, rat: RATInput | None = None) -> ThroughputPrediction:
        """Scalar prediction for row ``i``.

        ``rat`` short-circuits the worksheet rehydration when the caller
        still holds the original input object (the sweep backend does).
        """
        return ThroughputPrediction(
            rat=rat if rat is not None else self.batch.row(i),
            mode=self.mode,
            t_input=float(self.t_input[i]),
            t_output=float(self.t_output[i]),
            t_comm=float(self.t_comm[i]),
            t_comp=float(self.t_comp[i]),
            t_rc=float(self.t_rc[i]),
            speedup=float(self.speedup[i]),
            util_comp=float(self.util_comp[i]),
            util_comm=float(self.util_comm[i]),
        )

    def rows(
        self, inputs: Sequence[RATInput] | None = None
    ) -> Iterator[ThroughputPrediction]:
        """Iterate scalar predictions (optionally reusing caller inputs)."""
        if inputs is not None and len(inputs) != len(self):
            raise ParameterError(
                f"got {len(inputs)} inputs for {len(self)} predictions"
            )
        for i in range(len(self)):
            yield self.row(i, inputs[i] if inputs is not None else None)

    @property
    def computation_bound(self) -> np.ndarray:
        """Boolean column: True where computation dominates (row-wise
        analogue of ``ThroughputPrediction.bound``)."""
        return self.t_comp >= self.t_comm

    def argbest(self) -> int:
        """Row index of the highest predicted speedup.

        Quarantined (NaN) rows are ignored; if *every* row is NaN there
        is no best design and a ``ParameterError`` is raised.
        """
        try:
            return int(np.nanargmax(self.speedup))
        except ValueError:
            raise ParameterError(
                "argbest: every row is quarantined (all speedups are NaN)"
            ) from None

    def as_records(self) -> list[dict[str, float]]:
        """Flat per-row dicts mirroring ``ThroughputPrediction.as_dict``."""
        clock_mhz = self.batch.clock_hz / 1e6
        records = []
        for i in range(len(self)):
            record = {
                "clock_mhz": float(clock_mhz[i]),
                "t_input": float(self.t_input[i]),
                "t_output": float(self.t_output[i]),
                "t_comm": float(self.t_comm[i]),
                "t_comp": float(self.t_comp[i]),
                "t_rc": float(self.t_rc[i]),
                "speedup": float(self.speedup[i]),
                "util_comp": float(self.util_comp[i]),
                "util_comm": float(self.util_comm[i]),
            }
            if self.batch.names:
                record["name"] = self.batch.names[i]
            records.append(record)
        return records


def batch_predict(
    batch: BatchInput, mode: BufferingMode = BufferingMode.SINGLE
) -> BatchPrediction:
    """Equations (1)-(11) over every row of ``batch`` at once.

    Each row is computed with the same operation order as the scalar
    :func:`repro.core.throughput.predict`, so results agree bitwise.
    The result columns are freshly allocated and owned by the caller.
    The call increments ``throughput.predictions`` by the batch size and
    feeds the ``throughput.speedup`` histogram in bulk, keeping metric
    semantics consistent with the scalar path.
    """
    n = len(batch)
    with get_tracer().span(
        "rat.batch_predict", {"points": n, "mode": str(mode)}, "throughput"
    ):
        columns = [np.empty(n) for _ in _RESULT_COLUMNS]
        _predict_into(batch, mode, columns)
    return BatchPrediction(batch, mode, *columns)


def _iteration_ufunc(mode: BufferingMode) -> np.ufunc:
    """Equation (5) or (6): how one iteration combines comm and comp."""
    if mode is BufferingMode.SINGLE:
        return np.add
    if mode is BufferingMode.DOUBLE:
        return np.maximum
    raise ParameterError(f"unknown buffering mode {mode!r}")


def _record(n: int, speedup: np.ndarray) -> None:
    metrics = get_metrics()
    metrics.counter("throughput.predictions").inc(n)
    metrics.histogram("throughput.speedup").observe_many(speedup)


def _predict_into(
    batch: BatchInput,
    mode: BufferingMode,
    out: Sequence[np.ndarray],
    failed: np.ndarray | None = None,
) -> None:
    """The Equations (1)-(11) kernel: evaluate ``batch`` into ``out``.

    ``out`` holds the eight result columns, in :class:`BatchPrediction`
    field order, each exactly ``len(batch)`` rows long.  Without
    ``failed``, unchecked batches are validated first: the divisions
    would turn invalid rows into silent inf/NaN where the scalar path
    raises.

    ``failed`` is the quarantine path: the ascending indices of the
    rows :func:`violation_columns` rejected, the caller vouching that
    every other row passes.  Every row is evaluated, under
    ``np.errstate(all="ignore")`` so the failed rows raise no
    floating-point warning, and then each result column gets NaN in
    the failed rows.  The throughput metrics see the other rows only.
    Only this path pays for the ``errstate``.

    Batches longer than :data:`DEFAULT_TILE` rows are walked in tiles,
    so the whole equation chain runs on each tile while it is hot in
    cache.  Columns listed in ``batch.broadcast`` are read once as
    Python floats, so a product of two of them is one scalar multiply
    instead of a column pass.  Every operation is elementwise and
    applied in the scalar path's order, so neither tiling nor folding
    changes any row's bits.
    """
    iteration = _iteration_ufunc(mode)
    if failed is None and not batch.checked:
        batch._validate()
    n = len(batch)
    # An empty batch has no row to read a broadcast value from.
    broadcast = batch.broadcast if n else ()
    inputs = [
        float(getattr(batch, name)[0]) if name in broadcast
        else getattr(batch, name)
        for name in _COLUMNS
    ]
    if failed is None:
        _tiles(inputs, out, iteration, n)
        _record(n, out[5])
        return
    with np.errstate(all="ignore"):
        _tiles(inputs, out, iteration, n)
    for column in out:
        column[failed] = np.nan
    _record(
        n - len(failed), np.delete(out[5], failed) if len(failed) else out[5]
    )


def _tiles(
    inputs: Sequence[np.ndarray | float],
    out: Sequence[np.ndarray],
    iteration: np.ufunc,
    n: int,
) -> None:
    """Equations (1)-(11) over ``n`` rows, :data:`DEFAULT_TILE` at a time."""
    if n <= DEFAULT_TILE:
        _equations(inputs, out, iteration)
        return
    for lo in range(0, n, DEFAULT_TILE):
        t = slice(lo, lo + DEFAULT_TILE)
        _equations(
            [v if type(v) is float else v[t] for v in inputs],
            [column[t] for column in out],
            iteration,
        )


def _equations(
    inputs: Sequence[np.ndarray | float],
    out: Sequence[np.ndarray],
    iteration: np.ufunc,
) -> None:
    """Equations (1)-(11) over one tile, in the scalar path's order.

    Intermediates land in the tile's result views; the speedup view is
    scratch until Equation (7) fills it.
    """
    _transfer_compute(inputs, out[:4], out[5])
    _iteration(out[2], out[3], inputs[9], inputs[10], out, iteration)


def _transfer_compute(
    inputs: Sequence[np.ndarray | float],
    out: Sequence[np.ndarray | None],
    scratch: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Equations (1)-(4): returns ``(t_input, t_output, t_comm, t_comp)``.

    Each lands in its ``out`` entry, or in a fresh array shaped to its
    operands where that entry is ``None``; ``scratch`` (or a fresh
    array, if ``None``) receives the denominators.  The operands are a
    row tile's columns, or a grid's axis columns, which make each term
    an array over the axes it depends on.
    """
    e_in, e_out, bpe, bw, a_w, a_r, ops, thr, clk = inputs[:9]
    t_input, t_output, t_comm, t_comp = out
    # Equation (2): bytes_in / (alpha_write * bandwidth).
    t_input = np.divide(
        _times(e_in, bpe, t_input), _times(a_w, bw, scratch), t_input
    )
    # Equation (3), with the scalar path's zero-output short-circuit.
    t_output = np.divide(
        _times(e_out, bpe, t_output), _times(a_r, bw, scratch), t_output
    )
    if type(e_out) is not float:
        np.copyto(t_output, 0.0, where=e_out == 0)
    elif e_out == 0:
        t_output.fill(0.0)
    # Equations (1), (4).
    t_comm = np.add(t_input, t_output, t_comm)
    t_comp = np.divide(
        _times(e_in, ops, t_comp), _times(clk, thr, scratch), t_comp
    )
    return t_input, t_output, t_comm, t_comp


def _iteration(
    t_comm: np.ndarray,
    t_comp: np.ndarray,
    t_soft: np.ndarray | float,
    n_iter: np.ndarray | float,
    out: Sequence[np.ndarray],
    iteration: np.ufunc,
) -> None:
    """Equations (5)-(11) into ``out``'s last four result columns.

    ``out`` holds all eight result columns; ``t_comm`` and ``t_comp``
    may be ``out``'s own or any operands that broadcast to its shape.
    The speedup column holds the iteration time until Equation (7).
    """
    t_rc, s, u_comp, u_comm = out[4:]
    iteration(t_comm, t_comp, out=s)
    np.divide(t_comp, s, u_comp)
    np.divide(t_comm, s, u_comm)
    np.multiply(n_iter, s, t_rc)
    np.divide(t_soft, t_rc, s)


class GridKernel:
    """Equations (1)-(11) over the full cross product of axis columns.

    ``columns`` maps batch column names (SI) to arrays that broadcast
    over the grid: one dimension per axis, of that axis's length where
    the column follows the axis and 1 elsewhere.  Every other column
    keeps the base worksheet's value.  Rows are the grid's points in C
    order, last axis fastest, as :meth:`DesignSpace.grid
    <repro.explore.space.DesignSpace.grid>` lists them.  The caller
    vouches that every row passes the validation rules.

    Equations (1)-(4) run once, here, on the axes they depend on:
    ``t_comm`` over the alpha axes, ``t_comp`` over clock x
    throughput_proc.  :meth:`predict_into` then evaluates any flat row
    range.  Every operation is elementwise and in the scalar path's
    order, so each row's bits equal :func:`_predict_into`'s.
    """

    def __init__(
        self, base: RATInput, columns: Mapping[str, np.ndarray]
    ) -> None:
        values: dict[str, object] = _base_values(base)
        for name, column in columns.items():
            _check_column_name(name)
            values[name] = np.asarray(column, dtype=np.float64)
        self.shape = np.broadcast_shapes(
            *(np.shape(value) for value in values.values())
        )
        # A base value as a one-element grid array keeps every term
        # below an array over the grid's dimensions.
        ones = (1,) * len(self.shape)
        inputs = [
            np.full(ones, value) if type(value) is float else value
            for value in (values[name] for name in _COLUMNS)
        ]
        terms = _transfer_compute(inputs, (None,) * 4, None)
        self._terms = [
            np.broadcast_to(term, self.shape)
            for term in (*terms, inputs[9], inputs[10])
        ]

    def predict_into(
        self, lo: int, hi: int, mode: BufferingMode, out: Sequence[np.ndarray]
    ) -> None:
        """Evaluate grid rows ``[lo, hi)`` into ``out``.

        ``out`` holds the eight result columns, in
        :class:`BatchPrediction` field order, each a contiguous column
        of ``hi - lo`` rows.  The range is split into :func:`_boxes`,
        and each box's result slices are reshaped to the box as views.
        Each box receives Equations (1)-(4) as broadcast copies of the
        terms, then Equations (5)-(11) over those copies, which are
        contiguous and still in cache.
        """
        iteration = _iteration_ufunc(mode)
        for start, stop, index in _boxes(self.shape, lo, hi):
            terms = [term[index] for term in self._terms]
            views = [
                column[start - lo:stop - lo].reshape(terms[0].shape)
                for column in out
            ]
            for view, term in zip(views[:4], terms):
                np.copyto(view, term)
            _iteration(
                views[2], views[3], terms[4], terms[5], views, iteration
            )
        _record(hi - lo, out[5])


def _boxes(
    shape: tuple[int, ...], lo: int, hi: int
) -> Iterator[tuple[int, int, tuple[int | slice, ...]]]:
    """Split flat rows ``[lo, hi)`` of a C-order grid into boxes.

    A box fixes the leading axes, takes a range of one axis and all of
    each trailing axis, so its rows are contiguous.  Each box, from
    ``lo`` on, ranges over the outermost axis it can, so there are at
    most ``2k - 1`` of them for ``k`` axes.  Yields ``(start, stop,
    index)``: the box's rows and the index that selects it from a
    grid-shaped array.
    """
    strides = [math.prod(shape[d + 1:]) for d in range(len(shape))]
    start = lo
    while start < hi:
        d = next(
            d for d, stride in enumerate(strides)
            if start % stride == 0 and start + stride <= hi
        )
        stride = strides[d]
        block = stride * shape[d]
        stop = min(hi - (hi - start) % stride, start - start % block + block)
        # The box's first row as a grid index; its trailing entries are 0.
        corner = [start // s % length for s, length in zip(strides, shape)]
        index = (
            *corner[:d],
            slice(corner[d], corner[d] + (stop - start) // stride),
        )
        yield start, stop, index
        start = stop


def _times(
    a: np.ndarray | float, b: np.ndarray | float, out: np.ndarray | None
) -> np.ndarray | float:
    """``a * b``: one scalar multiply if both are broadcast floats."""
    if type(a) is float and type(b) is float:
        return a * b
    return np.multiply(a, b, out)
