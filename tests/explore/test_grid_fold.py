"""Folded grid explorations: the grid path against the row path.

``explore()`` evaluates a clean ``DesignSpace.grid`` on its axes
(:class:`~repro.core.batch.GridKernel`); any other space, or a grid with
a bad axis value, takes the row path.  The row path is the reference:
``DesignSpace(base, space.axes, space.values)`` is the same designs as
an explicit space, and every result must match it bit for bit.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import get_case_study
from repro.core.batch import _COLUMNS, _boxes
from repro.core.buffering import BufferingMode
from repro.core.throughput import predict
from repro.errors import ParameterError
from repro.explore import (
    DEFAULT_CHUNK_SIZE,
    DesignSpace,
    axis_names,
    explore,
    space as space_module,
)

from tests.conftest import RESULT_COLUMNS, rat_inputs

_REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: A valid value range per axis.
AXIS_RANGES = {
    "clock_hz": (1e6, 1e9),
    "clock_mhz": (1.0, 1000.0),
    "throughput_proc": (0.01, 1e4),
    "alpha": (1e-3, 1.0),
    "alpha_write": (1e-3, 1.0),
    "alpha_read": (1e-3, 1.0),
    "elements_in": (1.0, 1e7),
}


def test_axis_ranges_cover_every_axis():
    assert sorted(AXIS_RANGES) == axis_names()


@st.composite
def clean_grids(draw):
    """``(base, {axis: values})``: 1-4 axes writing disjoint fields."""
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
    return draw(rat_inputs()), axes


def _bits(column: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(column).view(np.uint64)


def _row_space(space: DesignSpace) -> DesignSpace:
    """The same designs as an explicit space, which takes the row path."""
    return DesignSpace(space.base, space.axes, space.values)


def _assert_same_result(got, want):
    assert len(got) == len(want)
    for name in RESULT_COLUMNS:
        assert np.array_equal(
            _bits(getattr(got.prediction, name)),
            _bits(getattr(want.prediction, name)),
        ), name
    for name in _COLUMNS:
        assert np.array_equal(
            _bits(getattr(got.prediction.batch, name)),
            _bits(getattr(want.prediction.batch, name)),
        ), name
    assert got.prediction.batch.broadcast == want.prediction.batch.broadcast
    assert got.prediction.batch.checked == want.prediction.batch.checked
    # repr, as a NaN value or axis value compares unequal to itself.
    assert list(map(repr, got.failures)) == list(map(repr, want.failures))
    if want.indices is None:
        assert got.indices is None
    else:
        assert got.indices.dtype == want.indices.dtype
        assert np.array_equal(got.indices, want.indices)


class TestGridMatchesRowPath:
    @pytest.mark.parametrize("on_error", ["fail", "skip", "quarantine"])
    @pytest.mark.parametrize("mode", list(BufferingMode))
    @settings(max_examples=40, deadline=None)
    @given(grid=clean_grids(), data=st.data())
    def test_every_column_bitwise(self, mode, on_error, grid, data):
        base, axes = grid
        space = DesignSpace.grid(base, **axes)
        assert space.grid_columns() is not None  # the folded path runs
        rows = _row_space(space)
        assert rows.grid_columns() is None
        n = len(space)
        chunk_sizes = [1, DEFAULT_CHUNK_SIZE]
        non_divisors = [c for c in range(2, n) if n % c]
        if non_divisors:
            chunk_sizes.append(data.draw(st.sampled_from(non_divisors)))
        for chunk_size in chunk_sizes:
            got = explore(space, mode, chunk_size=chunk_size, on_error=on_error)
            want = explore(rows, mode, chunk_size=chunk_size, on_error=on_error)
            _assert_same_result(got, want)
            assert got.failures == ()
            assert got.prediction.batch.checked
            if on_error == "skip":
                assert np.array_equal(got.indices, np.arange(n))

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 65, 1000])
    def test_boxes_tile_every_range(self, chunk_size):
        # Each box is contiguous, selects exactly its rows of the grid,
        # and a chunk splits into at most 2k - 1 of them.
        shape = (4, 1, 5, 3)
        grid = np.arange(int(np.prod(shape))).reshape(shape)
        for lo in range(0, grid.size, chunk_size):
            hi = min(lo + chunk_size, grid.size)
            boxes = list(_boxes(shape, lo, hi))
            assert len(boxes) <= 2 * len(shape) - 1
            assert [b[0] for b in boxes] == [lo] + [b[1] for b in boxes[:-1]]
            assert boxes[-1][1] == hi
            for start, stop, index in boxes:
                assert grid[index].ravel().tolist() == list(range(start, stop))


class TestBadAxisTakesRowPath:
    @pytest.mark.parametrize("axis,bad", [
        ("clock_mhz", float("nan")),
        ("clock_mhz", float("inf")),
        ("clock_mhz", float("-inf")),
        ("clock_mhz", 0.0),
        ("throughput_proc", -1.0),
        ("alpha", float("nan")),
        ("alpha", 1.5),
        ("alpha", 0.0),
        ("elements_in", 0.5),
    ])
    def test_row_path_diagnosis_byte_identical(self, pdf1d_rat, axis, bad):
        axes = {
            "clock_mhz": [75.0, 150.0],
            "alpha": [0.25, 0.5],
            "throughput_proc": [10.0, 20.0],
            "elements_in": [256.0, 512.0],
        }
        axes[axis] = [axes[axis][0], bad, axes[axis][1]]
        space = DesignSpace.grid(pdf1d_rat, **axes)
        assert space.grid_columns() is None
        rows = _row_space(space)
        with pytest.raises(ParameterError) as got:
            explore(space)
        with pytest.raises(ParameterError) as want:
            explore(rows)
        assert str(got.value) == str(want.value)
        assert " at row " in str(got.value)
        for on_error in ("skip", "quarantine"):
            result = explore(space, chunk_size=5, on_error=on_error)
            _assert_same_result(
                result, explore(rows, chunk_size=5, on_error=on_error)
            )
            assert result.failures


_KILLED_RUN = """
import os
import sys
sys.path.insert(0, {src!r})
import repro.explore.executor as executor
from repro.apps.registry import get_case_study
from repro.explore import DesignSpace, explore

space = DesignSpace.grid(get_case_study("pdf1d").rat, **{axes!r})
if {row_path!r}:
    space = DesignSpace(space.base, space.axes, space.values)
    kernel = executor._predict_into

    def kill_at(batch, mode, out, calls=[]):
        calls.append(None)
        if len(calls) > {survive}:
            os._exit(1)
        kernel(batch, mode, out)

    executor._predict_into = kill_at
else:
    predict_into = executor.GridKernel.predict_into

    def kill_at(self, lo, hi, mode, out):
        if lo >= {survive} * {chunk}:
            os._exit(1)
        predict_into(self, lo, hi, mode, out)

    executor.GridKernel.predict_into = kill_at
explore(space, chunk_size={chunk}, on_error={on_error!r},
        checkpoint={journal!r})
"""


class TestKilledGridRunResumes:
    AXES = {
        "clock_mhz": [50.0, 75.0, 100.0, 150.0, 200.0],
        "alpha": [0.1, 0.37, 0.9],
        "throughput_proc": [5.0, 10.0, 20.0, 40.0],
    }

    @pytest.mark.parametrize("row_path", [False, True],
                             ids=["grid-journal", "row-journal"])
    @pytest.mark.parametrize("on_error", ["fail", "skip"])
    def test_resume_bitwise_identical(
        self, tmp_path, pdf1d_rat, row_path, on_error
    ):
        # The row-path journal is the one explore() wrote for grids
        # before they were folded: the run key hashes the same values.
        chunk, survive = 7, 4
        journal = tmp_path / "killed.jsonl"
        script = _KILLED_RUN.format(
            src=os.path.join(_REPO, "src"), axes=self.AXES,
            row_path=row_path, survive=survive, chunk=chunk,
            on_error=on_error, journal=str(journal),
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        space = DesignSpace.grid(pdf1d_rat, **self.AXES)
        resumed = explore(
            space, chunk_size=chunk, on_error=on_error,
            checkpoint=journal, resume=True,
        )
        assert resumed.resumed_chunks == survive
        _assert_same_result(
            resumed, explore(space, chunk_size=chunk, on_error=on_error)
        )


class TestPaperAnchors:
    @pytest.mark.parametrize("study,clock_mhz,anchor", [
        ("pdf1d", 150.0, 10.6),
        ("pdf2d", 150.0, 6.9),
        ("md", 100.0, 10.7),
    ])
    def test_anchor_through_the_grid_path(self, study, clock_mhz, anchor):
        rat = get_case_study(study).rat
        space = DesignSpace.grid(rat, clock_mhz=[75.0, 100.0, 150.0])
        assert space.grid_columns() is not None
        result = explore(space)
        i = [75.0, 100.0, 150.0].index(clock_mhz)
        speedup = float(result.prediction.speedup[i])
        assert round(speedup, 1) == anchor
        assert speedup == predict(rat.with_clock_hz(clock_mhz * 1e6)).speedup
