"""Design spaces: named parameter axes over a base worksheet.

A :class:`DesignSpace` is a base :class:`~repro.core.params.RATInput`
plus an ``(n, k)`` matrix of axis values — one column per named axis, one
row per candidate design, stored column-major so each axis column is
contiguous.  Three constructors cover the common sampling
plans: :meth:`DesignSpace.grid` (full cross product),
:meth:`DesignSpace.random` (independent uniform draws), and
:meth:`DesignSpace.explicit` (a hand-picked point list).  A grid also
keeps its per-axis value vectors, so :meth:`DesignSpace.grid_columns`
can hand the batch engine its axes instead of its rows.

Every axis is defined twice, consistently:

* a **scalar edit** reusing the worksheet's ``with_*`` methods, so
  :meth:`DesignSpace.design` yields exactly the ``RATInput`` a hand
  written what-if loop would construct; and
* a **column expansion** mapping the axis values to SI-unit
  :class:`~repro.core.batch.BatchInput` columns, so
  :meth:`DesignSpace.to_batch` can feed the vectorized engine without
  materialising per-row dataclasses.

The two definitions apply the same unit conversions in the same order,
keeping the scalar and batch paths numerically identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from ..core.batch import _COLUMNS, _ROW_RULES, BatchInput
from ..core.params import RATInput
from ..errors import ParameterError
from ..units import MHZ

__all__ = ["AxisSpec", "DesignSpace", "axis_names", "axis_range"]

#: Scalar what-if edit: (base worksheet, axis value) -> edited worksheet.
Edit = Callable[[RATInput, float], RATInput]

#: Column expansion: axis value column -> BatchInput column overrides (SI).
ColumnFn = Callable[[np.ndarray], dict[str, np.ndarray]]


@dataclass(frozen=True)
class AxisSpec:
    """One sweepable worksheet parameter.

    ``edit`` is the scalar path (reuses ``RATInput.with_*``); ``columns``
    is the vectorized path; ``targets`` names the BatchInput columns the
    axis writes, used to reject overlapping axes at space construction.
    """

    name: str
    edit: Edit
    columns: ColumnFn
    targets: tuple[str, ...]


_AXES: dict[str, AxisSpec] = {
    "clock_hz": AxisSpec(
        "clock_hz",
        lambda r, v: r.with_clock_hz(v),
        lambda v: {"clock_hz": v},
        ("clock_hz",),
    ),
    "clock_mhz": AxisSpec(
        "clock_mhz",
        lambda r, v: r.with_clock_hz(v * MHZ),
        lambda v: {"clock_hz": v * MHZ},
        ("clock_hz",),
    ),
    "throughput_proc": AxisSpec(
        "throughput_proc",
        lambda r, v: r.with_throughput_proc(v),
        lambda v: {"throughput_proc": v},
        ("throughput_proc",),
    ),
    "alpha": AxisSpec(
        "alpha",
        lambda r, v: r.with_alphas(v, v),
        lambda v: {"alpha_write": v, "alpha_read": v},
        ("alpha_write", "alpha_read"),
    ),
    "alpha_write": AxisSpec(
        "alpha_write",
        lambda r, v: r.with_alphas(v, r.communication.alpha_read),
        lambda v: {"alpha_write": v},
        ("alpha_write",),
    ),
    "alpha_read": AxisSpec(
        "alpha_read",
        lambda r, v: r.with_alphas(r.communication.alpha_write, v),
        lambda v: {"alpha_read": v},
        ("alpha_read",),
    ),
    "elements_in": AxisSpec(
        "elements_in",
        lambda r, v: r.with_block_size(
            _block_size(v), r.software.n_iterations
        ),
        lambda v: {"elements_in": np.trunc(v)},
        ("elements_in",),
    ),
}


def _block_size(v: float) -> int | float:
    """The ``elements_in`` an axis value sets: ``int(v)`` if that is valid.

    A value that truncates to a bad size (below 1, NaN or infinite) is
    passed on as the float the batch column holds, ``np.trunc(v)``, so
    the worksheet's ``ParameterError`` names the value quarantine and
    ``explore(on_error="fail")`` report (``got 0.0``, ``got -0.0``,
    ``got nan``), and ``int()`` of NaN or inf cannot pre-empt it.
    """
    size = float(np.trunc(v))
    return int(size) if 1 <= size < math.inf else size


#: Each axis's place in worksheet column order: that of the earliest
#: field it writes.
_COLUMN_ORDER = {
    name: min(_COLUMNS.index(target) for target in spec.targets)
    for name, spec in _AXES.items()
}

#: Batch column -> its vectorized valid-value mask (one rule per column).
_COLUMN_RULES = {name: ok for name, ok, _ in _ROW_RULES}


def axis_names() -> list[str]:
    """The supported axis names, sorted (CLI help and error messages)."""
    return sorted(_AXES)


def axis_range(name: str, low: float, high: float, count: int) -> list[float]:
    """``count`` evenly spaced values of axis ``name``, ``low`` to ``high``.

    The range form of an axis, shared by ``rat explore --axis
    NAME=lo:hi:count`` and ``/v1/explore``'s ``{"lo", "hi", "count"}``.
    """
    if count < 1:
        raise ParameterError(f"axis {name!r} count must be >= 1")
    if count == 1:
        return [low]
    step = (high - low) / (count - 1)
    return [low + step * i for i in range(count)]


def _axis(name: str) -> AxisSpec:
    spec = _AXES.get(name)
    if spec is None:
        raise ParameterError(
            f"unknown design axis {name!r}; supported: {axis_names()}"
        )
    return spec


@dataclass(frozen=True, eq=False)
class DesignSpace:
    """``n`` candidate designs spanned by named parameter axes.

    ``values`` is an ``(n, k)`` float matrix; column ``j`` holds the
    value of axis ``axes[j]`` for each design point.  It is stored
    column-major (converted once on construction if given otherwise),
    so :meth:`to_batch` hands each axis column to the batch engine as a
    contiguous view, and read-only.  Construct through :meth:`grid`,
    :meth:`random`, or :meth:`explicit`.

    ``grid_axes`` holds a :meth:`grid`'s value vector per axis,
    read-only like ``values``; it is ``None`` for every other space.
    """

    base: RATInput
    axes: tuple[str, ...]
    values: np.ndarray
    grid_axes: tuple[np.ndarray, ...] | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        for name in self.axes:
            _axis(name)  # raises on unknown axes
        if len(set(self.axes)) != len(self.axes):
            raise ParameterError(f"duplicate axes in {self.axes}")
        targets = [t for name in self.axes for t in _axis(name).targets]
        if len(set(targets)) != len(targets):
            raise ParameterError(
                f"axes {self.axes} write overlapping worksheet fields"
            )
        matrix = np.asarray(self.values, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.axes):
            raise ParameterError(
                f"values must be (n, {len(self.axes)}), got {matrix.shape}"
            )
        if matrix.shape[0] < 1:
            raise ParameterError("a design space needs at least one point")
        # A view, so freezing it leaves the caller's array writable.
        matrix = np.asfortranarray(matrix).view()
        matrix.flags.writeable = False
        object.__setattr__(self, "values", matrix)

    # ---- constructors ------------------------------------------------------

    @classmethod
    def grid(cls, base: RATInput, **axes: Sequence[float]) -> "DesignSpace":
        """Full cross product of the given per-axis value lists.

        ``DesignSpace.grid(rat, clock_mhz=[75, 100, 150], alpha=[.2, .4])``
        yields 6 points.  Axis order follows keyword order; the last axis
        varies fastest.

        The space keeps each axis's value vector as ``grid_axes``, so
        :func:`~repro.explore.explore` can validate each axis value once
        and fold Equations (1)-(4) onto the axes (see
        :meth:`grid_columns`) instead of evaluating them per row.
        """
        if not axes:
            raise ParameterError("grid requires at least one axis")
        names = tuple(axes)
        columns = [
            np.asarray(list(values), dtype=np.float64)
            for values in axes.values()
        ]
        for name, column in zip(names, columns):
            if column.ndim != 1 or column.shape[0] < 1:
                raise ParameterError(f"axis {name!r} needs a 1-D value list")
        shape = tuple(len(column) for column in columns)
        matrix = np.empty((math.prod(shape), len(names)), order="F")
        # Fill each contiguous column, viewed as the grid's index space,
        # by broadcasting its axis's values along their own dimension.
        mesh = np.meshgrid(*columns, indexing="ij", sparse=True)
        for j, axis in enumerate(mesh):
            matrix[:, j].reshape(shape)[...] = axis
        space = cls(base=base, axes=names, values=matrix)
        for column in columns:
            column.flags.writeable = False
        object.__setattr__(space, "grid_axes", tuple(columns))
        return space

    @classmethod
    def random(
        cls,
        base: RATInput,
        n: int,
        *,
        seed: int = 2007,
        **ranges: tuple[float, float],
    ) -> "DesignSpace":
        """``n`` independent uniform draws from per-axis (low, high) ranges."""
        if n < 1:
            raise ParameterError(f"n must be >= 1, got {n}")
        if not ranges:
            raise ParameterError("random requires at least one axis range")
        names = tuple(ranges)
        lows = np.array([r[0] for r in ranges.values()], dtype=np.float64)
        highs = np.array([r[1] for r in ranges.values()], dtype=np.float64)
        if (highs < lows).any():
            raise ParameterError("axis ranges must satisfy low <= high")
        rng = np.random.default_rng(seed)
        matrix = lows + (highs - lows) * rng.random((n, len(names)))
        return cls(base=base, axes=names, values=matrix)

    @classmethod
    def explicit(
        cls, base: RATInput, points: Sequence[Mapping[str, float]]
    ) -> "DesignSpace":
        """A hand-picked list of ``{axis: value}`` design points.

        Every point must name the same axes (a ragged list would make
        the value matrix — and the comparison — meaningless).
        """
        if not points:
            raise ParameterError("explicit requires at least one point")
        names = tuple(points[0])
        for i, point in enumerate(points):
            if tuple(point) != names:
                raise ParameterError(
                    f"point {i} axes {tuple(point)} differ from {names}"
                )
        matrix = np.array(
            [[float(point[name]) for name in names] for point in points],
            dtype=np.float64,
        )
        return cls(base=base, axes=names, values=matrix)

    # ---- accessors ---------------------------------------------------------

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def point(self, i: int) -> dict[str, float]:
        """Axis values of design ``i`` as ``{axis: value}``."""
        return {
            name: float(self.values[i, j]) for j, name in enumerate(self.axes)
        }

    def design(self, i: int) -> RATInput:
        """Scalar worksheet for design ``i`` via the ``with_*`` edits.

        The edits apply in worksheet column order of the fields they
        write, so a design with several bad axes raises for the first
        bad field in that order, as batch validation and quarantine
        diagnose it.  Axes write disjoint fields, so the order changes
        no valid design.
        """
        rat = self.base
        for j in sorted(
            range(len(self.axes)), key=lambda j: _COLUMN_ORDER[self.axes[j]]
        ):
            rat = _axis(self.axes[j]).edit(rat, float(self.values[i, j]))
        return rat

    def designs(self) -> Iterator[RATInput]:
        """Iterate every design as a scalar worksheet (slow path)."""
        return (self.design(i) for i in range(len(self)))

    def to_batch(self, *, check: bool = True) -> BatchInput:
        """The whole space as one :class:`BatchInput` (fast path).

        Applies each axis's column expansion to the base worksheet; no
        per-row ``RATInput`` objects are created, and axes that need no
        unit conversion pass their value column on without a copy.
        ``check=False`` defers row validation so the fault-tolerant
        executor can quarantine invalid design points instead of losing
        the space to its first bad row.
        """
        overrides: dict[str, np.ndarray] = {}
        for j, name in enumerate(self.axes):
            overrides.update(_axis(name).columns(self.values[:, j]))
        return BatchInput.from_base(self.base, len(self), overrides, check=check)

    def grid_columns(self) -> dict[str, np.ndarray] | None:
        """A clean grid's batch columns, shaped to its axes, or ``None``.

        Each axis's column expansion is applied to its value vector
        and shaped to broadcast over the grid (the axis's length on its
        own dimension, 1 elsewhere), ready for
        :class:`~repro.core.batch.GridKernel`.  Each axis value is
        checked once against the rule of every column it writes: as the
        base worksheet is an already-validated ``RATInput``, every
        design of the grid passes the row rules iff every axis value
        does.  ``None`` for a space that is not a grid, or a grid with
        any bad axis value; such spaces take the row path, which names
        the first bad row.
        """
        if self.grid_axes is None:
            return None
        shape = [1] * len(self.axes)
        columns: dict[str, np.ndarray] = {}
        for j, (name, vector) in enumerate(zip(self.axes, self.grid_axes)):
            shape[j] = len(vector)
            for target, column in _axis(name).columns(vector).items():
                if not _COLUMN_RULES[target](column).all():
                    return None
                columns[target] = column.reshape(shape)
            shape[j] = 1
        return columns

    def describe(self) -> str:
        """e.g. ``"3 axes x 1000 points over clock_mhz, alpha, ..."``."""
        return (
            f"{len(self.axes)} axis(es) x {len(self)} point(s) over "
            + ", ".join(self.axes)
        )

