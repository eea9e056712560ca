"""A grid is its axes: every per-row view derived from the axis vectors.

``DesignSpace.grid`` holds one value vector per axis.  Its length,
points, designs, batch, ``values`` and run key must equal those of the
same designs given as a materialised matrix (the explicit-space path),
bit for bit; building it and exploring it must hold no ``n x k``
matrix and no staged input column; and a grid result's
``prediction.batch`` is built from the axes only when it is read.
"""

from __future__ import annotations

import itertools
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import get_case_study
from repro.core.batch import _COLUMNS
from repro.core.buffering import BufferingMode
from repro.errors import ParameterError
from repro.explore import (
    DesignSpace,
    axis_names,
    explore,
    map_designs,
    run_key,
    space as space_module,
)

from tests.conftest import RESULT_COLUMNS, rat_inputs

MIB = 1 << 20

#: A valid value range per axis, and values its rules reject.
AXIS_RANGES = {
    "clock_hz": (1e6, 1e9),
    "clock_mhz": (1.0, 1000.0),
    "throughput_proc": (0.01, 1e4),
    "alpha": (1e-3, 1.0),
    "alpha_write": (1e-3, 1.0),
    "alpha_read": (1e-3, 1.0),
    "elements_in": (1.0, 1e7),
}
BAD_VALUES = {
    "clock_hz": [0.0, -5.0],
    "clock_mhz": [0.0, -1.0],
    "throughput_proc": [0.0, -1.0],
    "alpha": [0.0, 1.5],
    "alpha_write": [0.0, 1.5],
    "alpha_read": [-0.5, 1.5],
    "elements_in": [0.5, -3.0],
}


def test_value_tables_cover_every_axis():
    assert sorted(AXIS_RANGES) == sorted(BAD_VALUES) == axis_names()


@st.composite
def grids(draw):
    """``(base, {axis: values})``: 1-4 axes of 1-7 values each, writing
    disjoint fields, with at most one bad value (NaN, +-inf or out of
    range) in one axis."""
    order = draw(st.permutations(axis_names()))
    count = draw(st.integers(1, 4))
    axes: dict[str, list[float]] = {}
    written: set[str] = set()
    for name in order:
        targets = set(space_module._axis(name).targets)
        if len(axes) == count or targets & written:
            continue
        written |= targets
        lo, hi = AXIS_RANGES[name]
        axes[name] = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=7))
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(axes)))
        bad = draw(st.sampled_from(
            [float("nan"), float("inf"), float("-inf"), *BAD_VALUES[name]]
        ))
        at = draw(st.integers(0, len(axes[name])))
        axes[name].insert(at, bad)
    return draw(rat_inputs()), axes


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.uint64)


def _outcome(call):
    """``("ok", value)`` or ``("error", message)`` of a raising call."""
    try:
        return "ok", call()
    except ParameterError as exc:
        return "error", str(exc)


class TestGridMatchesMatrix:
    @settings(max_examples=60, deadline=None)
    @given(grid=grids())
    def test_every_view_bitwise(self, grid):
        base, axes = grid
        space = DesignSpace.grid(base, **axes)
        matrix = np.array(list(itertools.product(*axes.values())))
        rows = DesignSpace(base, tuple(axes), matrix)
        n = len(rows)
        assert len(space) == n
        for i in [*range(n), -1, -n]:
            # repr: a NaN axis value compares unequal to itself.
            assert repr(space.point(i)) == repr(rows.point(i))
            assert _outcome(lambda: space.design(i)) == _outcome(
                lambda: rows.design(i)
            )
        picked = np.arange(n)[::-1]
        assert np.array_equal(
            _bits(space.values_at(picked)), _bits(rows.values_at(picked))
        )
        got, want = space.to_batch(check=False), rows.to_batch(check=False)
        for name in _COLUMNS:
            assert np.array_equal(
                _bits(getattr(got, name)), _bits(getattr(want, name))
            ), name
        assert got.broadcast == want.broadcast
        assert got.alpha_write is got.alpha_read or "alpha" not in axes
        checked = _outcome(lambda: space.to_batch().checked)
        assert checked == _outcome(lambda: rows.to_batch().checked)
        for mode, chunk, on_error in [
            (BufferingMode.SINGLE, 7, "fail"),
            (BufferingMode.DOUBLE, 65536, "quarantine"),
        ]:
            assert run_key(space, mode, chunk, on_error) == run_key(
                rows, mode, chunk, on_error
            )
        # Read last: every view above came from the axes alone.
        assert "values" not in vars(space)
        values = space.values
        assert np.array_equal(_bits(values), _bits(matrix))
        assert values.flags.f_contiguous and not values.flags.writeable
        assert space.values is values  # built once, then kept

    def test_golden_run_key(self):
        # Keys of grid journals written before grids kept only their
        # axes: such journals must still resume.
        space = DesignSpace.grid(
            get_case_study("pdf1d").rat,
            clock_mhz=[75.0, 100.0, 150.0],
            alpha=[0.1, 0.37, 0.9],
            throughput_proc=[5.0, 20.0],
        )
        assert run_key(space, BufferingMode.SINGLE, 7, "fail") == (
            "4dfde8c7db8152b16cdfd2e92baa8dd884813aa13f9452400ece3d8949d9192c"
        )
        big = DesignSpace.grid(
            get_case_study("pdf1d").rat,
            clock_mhz=[float(x) for x in range(50, 350)],
            alpha=[0.1, 0.2, 0.5, 0.9],
            throughput_proc=[float(t) for t in range(1, 101)],
        )
        assert len(big) == 120_000  # spans two hash blocks
        assert run_key(big, BufferingMode.SINGLE, 65536, "fail") == (
            "a744a25b26222a335b984d76041e37609d6438a836604126a9a2bd3cb0fe1d72"
        )

    def test_repr_builds_no_values(self, simple_rat):
        space = DesignSpace.grid(simple_rat, clock_mhz=[100, 200], alpha=[.5])
        assert "grid_axes=" in repr(space)
        assert "values" not in vars(space)


def _big_grid() -> DesignSpace:
    """1e6 points: a 100 x 100 x 100 clock x alpha x throughput grid."""
    return DesignSpace.grid(
        get_case_study("pdf1d").rat,
        clock_mhz=np.linspace(50.0, 300.0, 100),
        alpha=np.linspace(0.05, 0.95, 100),
        throughput_proc=np.linspace(5.0, 80.0, 100),
    )


class TestFootprint:
    def test_building_allocates_under_2_mib(self):
        tracemalloc.start()
        try:
            space = _big_grid()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(space) == 1_000_000
        assert peak < 2 * MIB

    def test_explore_holds_only_the_result_columns(self):
        space = _big_grid()
        explore(space)  # warm: first-call metric and import state
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            result = explore(space)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = len(RESULT_COLUMNS) * len(space) * 8
        assert held - before <= columns + MIB
        assert len(result) == len(space)

    def test_pickled_grid_under_64_kib(self):
        space = _big_grid()
        assert len(pickle.dumps(space)) < 64 * 1024
        space.values  # a built matrix is left out too
        copy = pickle.loads(pickle.dumps(space))
        assert len(pickle.dumps(space)) < 64 * 1024
        assert copy.values.tobytes() == space.values.tobytes()

    def test_map_designs_pool_ships_the_axes(self):
        space = DesignSpace.grid(
            get_case_study("pdf1d").rat,
            clock_mhz=[75.0, 150.0], alpha=[0.2, 0.4, 0.8],
        )
        got = map_designs(space, _clock_hz, workers=2, chunk_size=2)
        assert got == [space.design(i).computation.clock_hz
                       for i in range(len(space))]


def _clock_hz(rat):
    return rat.computation.clock_hz


class TestDeferredBatch:
    def test_built_on_first_read_and_kept(self, monkeypatch, pdf1d_rat):
        space = DesignSpace.grid(
            pdf1d_rat, clock_mhz=[75.0, 150.0], alpha=[0.2, 0.8],
            throughput_proc=[5.0, 10.0, 20.0],
        )
        staged = []
        to_batch = DesignSpace.to_batch

        def counting(self, **kwargs):
            staged.append(kwargs)
            return to_batch(self, **kwargs)

        monkeypatch.setattr(DesignSpace, "to_batch", counting)
        result = explore(space)
        assert staged == []
        first = result.prediction.batch
        assert staged == [{"check": False}]
        assert result.prediction.batch is first
        assert staged == [{"check": False}]
        assert first.checked
        assert first.alpha_write is first.alpha_read
        want = explore(DesignSpace(space.base, space.axes, space.values))
        for name in _COLUMNS:
            assert np.array_equal(
                _bits(getattr(first, name)),
                _bits(getattr(want.prediction.batch, name)),
            ), name
        assert first.broadcast == want.prediction.batch.broadcast

    @pytest.mark.parametrize("read_first", [False, True])
    def test_result_pickles(self, pdf1d_rat, read_first):
        space = DesignSpace.grid(
            pdf1d_rat, clock_mhz=[75.0, 150.0], alpha=[0.2, 0.8]
        )
        result = explore(space)
        if read_first:
            result.prediction.batch
        copy = pickle.loads(pickle.dumps(result))
        for name in RESULT_COLUMNS:
            assert np.array_equal(
                _bits(getattr(copy.prediction, name)),
                _bits(getattr(result.prediction, name)),
            ), name
        for name in _COLUMNS:
            assert np.array_equal(
                _bits(getattr(copy.prediction.batch, name)),
                _bits(getattr(result.prediction.batch, name)),
            ), name
        assert copy.prediction.batch.checked

    def test_missing_attribute_still_raises(self, pdf1d_rat):
        result = explore(DesignSpace.grid(pdf1d_rat, alpha=[0.5]))
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            result.prediction.nope
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            result.space.nope


def _old_as_records(result):
    """``ExplorationResult.as_records`` as it was, one row at a time."""
    prediction = result.prediction
    clock_mhz = prediction.batch.clock_hz / 1e6
    records = []
    for i in range(len(prediction)):
        record = {"clock_mhz": float(clock_mhz[i])}
        for name in RESULT_COLUMNS:
            record[name] = float(getattr(prediction, name)[i])
        record.update(result.space.point(result.design_index(i)))
        records.append(record)
    return records


def _old_ranked(result, top):
    """``ExplorationResult.ranked`` as it was: every row's record built,
    NaN rows dropped, sorted, then cut."""
    records = [
        r for r in _old_as_records(result) if r["speedup"] == r["speedup"]
    ]
    records.sort(key=lambda r: -r["speedup"])
    return records[:top] if top > 0 else records


class TestRanked:
    @pytest.mark.parametrize("on_error", ["fail", "quarantine", "skip"])
    @pytest.mark.parametrize("grid", [True, False], ids=["grid", "rows"])
    def test_matches_old_definition(self, pdf1d_rat, on_error, grid):
        # Repeated axis values tie speedups; the -1 clock fails a third
        # of the points under quarantine and skip.
        axes = {
            "clock_mhz": [100.0, 150.0, 100.0]
            + ([] if on_error == "fail" else [-1.0]),
            "alpha": [0.3, 0.3, 0.6],
        }
        space = DesignSpace.grid(pdf1d_rat, **axes)
        if not grid:
            space = DesignSpace(space.base, space.axes, space.values)
        result = explore(space, chunk_size=4, on_error=on_error)
        n = len(result)
        for top in (0, 1, n, n + 5):
            # repr: same keys in the same order, same float bits.
            assert repr(result.ranked(top)) == repr(_old_ranked(result, top))
        assert repr(result.as_records()) == repr(_old_as_records(result))
