"""The single rule pass and the failure records built from it.

``quarantine_rows`` validates a batch in one pass over each distinct
column and builds its :class:`PointFailure` records from that pass's
columns; a checked batch raises for the first row the same pass finds.
The oracle is the scalar ``RATInput`` validation, applied row by row.
"""

from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.batch as batch_module
from repro.core.batch import _COLUMNS, BatchInput, row_violations
from repro.core.params import (
    CommunicationParams,
    ComputationParams,
    DatasetParams,
    SoftwareParams,
)
from repro.errors import ParameterError
from repro.explore import DesignSpace, PointFailure, explore, quarantine_rows

#: Values that break at least one rule of every column kind.
BAD_VALUES = (
    float("nan"), float("inf"), float("-inf"), 0.0, -0.0, -1.5, 1.5, 2.0,
)

#: A valid range per column, in worksheet column order.
VALID_RANGES = {
    "elements_in": (1.0, 1e6),
    "elements_out": (0.0, 1e6),
    "bytes_per_element": (0.5, 16.0),
    "ideal_bandwidth": (1e6, 1e10),
    "alpha_write": (0.01, 1.0),
    "alpha_read": (0.01, 1.0),
    "ops_per_element": (0.5, 100.0),
    "throughput_proc": (0.1, 10.0),
    "clock_hz": (1e6, 1e9),
    "t_soft": (1e-6, 100.0),
    "n_iterations": (1.0, 1e4),
}


def _value(name: str) -> st.SearchStrategy[float]:
    lo, hi = VALID_RANGES[name]
    return st.one_of(
        st.floats(lo, hi), st.floats(lo, hi), st.sampled_from(BAD_VALUES)
    )


@st.composite
def mixed_batches(draw) -> dict[str, object]:
    """``BatchInput`` arguments mixing streamed and broadcast columns.

    Broadcast columns hold one value the batch lists in ``broadcast``
    (``elements_in``, which sets the batch length, as a constant array;
    the rest as scalars, which become zero-stride views).  Half the
    batches share one streamed array between both alphas, as the
    ``alpha`` design axis does.
    """
    n = draw(st.integers(1, 30))
    columns: dict[str, object] = {}
    broadcast = set()
    for name in _COLUMNS:
        if draw(st.booleans()):
            value = draw(_value(name))
            columns[name] = np.full(n, value) if name == "elements_in" else value
            broadcast.add(name)
        else:
            columns[name] = np.array(
                draw(st.lists(_value(name), min_size=n, max_size=n))
            )
    if draw(st.booleans()):
        alpha = np.array(
            draw(st.lists(_value("alpha_write"), min_size=n, max_size=n))
        )
        columns["alpha_write"] = columns["alpha_read"] = alpha
        broadcast -= {"alpha_write", "alpha_read"}
    return {**columns, "broadcast": frozenset(broadcast)}


def _scalar_failure(batch: BatchInput, i: int) -> tuple[str, float, str] | None:
    """``(parameter, value, reason)`` the scalar groups raise for row i."""
    row = {name: float(getattr(batch, name)[i]) for name in _COLUMNS}
    try:
        DatasetParams(
            row["elements_in"], row["elements_out"], row["bytes_per_element"]
        )
        CommunicationParams(
            row["ideal_bandwidth"], row["alpha_write"], row["alpha_read"]
        )
        ComputationParams(
            row["ops_per_element"], row["throughput_proc"], row["clock_hz"]
        )
        SoftwareParams(row["t_soft"], row["n_iterations"])
    except ParameterError as exc:
        reason = str(exc)
        parameter = reason.split()[0]
        return parameter, row[parameter], reason
    return None


def _same_float(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or (
        a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    )


class TestSinglePassParity:
    @settings(max_examples=300, deadline=None)
    @given(mixed_batches())
    def test_matches_scalar_validation_row_by_row(self, arguments):
        batch = BatchInput(**arguments, check=False)
        valid, failures = quarantine_rows(batch)
        expected = {
            i: found
            for i in range(len(batch))
            if (found := _scalar_failure(batch, i)) is not None
        }
        assert [f.index for f in failures] == sorted(expected)
        for failure in failures:
            parameter, value, reason = expected[failure.index]
            assert failure.parameter == parameter
            assert _same_float(failure.value, value)
            assert failure.reason == reason
            assert failure.point is None
        assert valid.tolist() == [
            i for i in range(len(batch)) if i not in expected
        ]
        # row_violations reads the same pass.
        assert [(v.row, v.column, v.message) for v in row_violations(batch)] == [
            (f.index, f.parameter, f.reason) for f in failures
        ]
        # A checked batch raises for the first invalid row.
        if failures:
            first = failures[0]
            with pytest.raises(ParameterError) as raised:
                BatchInput(**arguments)
            assert str(raised.value) == f"{first.reason} at row {first.index}"
        else:
            BatchInput(**arguments)

    def test_row_breaking_two_groups_reports_the_dataset_field(
        self, simple_rat
    ):
        # Scalar validation builds DatasetParams first, so elements_out
        # is diagnosed before clock_hz (a ComputationParams field).
        batch = BatchInput.from_base(
            simple_rat, 2,
            {"elements_out": [-1.0, 0.0], "clock_hz": [0.0, 0.0]},
            check=False,
        )
        _, failures = quarantine_rows(batch)
        assert [(f.index, f.parameter) for f in failures] == [
            (0, "elements_out"), (1, "clock_hz"),
        ]

    def test_explore_reads_each_distinct_column_once(
        self, pdf1d_rat, monkeypatch
    ):
        # clock_mhz, alpha (one array for both alphas) and
        # throughput_proc are the space's three streamed columns; each
        # must be read by one full-length rule check, not two.
        n = 200
        values = np.column_stack([
            np.linspace(50.0, 300.0, n),
            np.linspace(0.05, 1.0, n),
            np.linspace(0.5, 4.0, n),
        ])
        values[::10, 0] = -1.0  # 10% invalid: clock below zero
        space = DesignSpace(
            base=pdf1d_rat,
            axes=("clock_mhz", "alpha", "throughput_proc"),
            values=values,
        )
        lengths: list[int] = []
        wrapped = {}

        def counting(ok_fn):
            def check(column):
                lengths.append(column.shape[0])
                return ok_fn(column)
            return check

        rules = []
        for name, ok_fn, describe in batch_module._ROW_RULES:
            wrapped.setdefault(ok_fn, counting(ok_fn))
            rules.append((name, wrapped[ok_fn], describe))
        monkeypatch.setattr(batch_module, "_ROW_RULES", tuple(rules))
        result = explore(space, on_error="quarantine")
        assert result.n_failed == n // 10
        assert lengths.count(n) == 3


class TestFailModeNamesTheFirstBadDesign:
    @pytest.mark.parametrize("values, message", [
        # Design 0 breaks clock_hz, design 1 alpha_write, a rule checked
        # before clock_hz.
        ([[0.0, 0.5], [100.0, 1.5]],
         "clock_hz must be positive and finite, got 0.0 at row 0"),
        # Design 0 breaks alpha_write, design 1 clock_hz.
        ([[100.0, 1.5], [0.0, 0.5]],
         "alpha_write must be in (0, 1], got 1.5 at row 0"),
    ])
    def test_first_invalid_row_not_first_broken_rule(
        self, pdf1d_rat, values, message
    ):
        # The error names design 0, as a scalar loop over the space's
        # designs does, whichever rule design 1 breaks.
        space = DesignSpace(
            base=pdf1d_rat, axes=("clock_mhz", "alpha"),
            values=np.array(values),
        )
        with pytest.raises(ParameterError) as scalar:
            space.design(0)
        with pytest.raises(ParameterError) as raised:
            explore(space)
        assert str(raised.value) == f"{scalar.value} at row 0" == message


class TestFailureRecords:
    def test_records_carry_the_design_points(self, pdf1d_rat):
        space = DesignSpace.grid(
            pdf1d_rat, clock_mhz=[0.0, 100.0, -5.0, 150.0, float("inf")]
        )
        valid, failures = quarantine_rows(space.to_batch(check=False), space)
        assert valid.tolist() == [1, 3]
        assert failures == tuple(
            PointFailure(
                index=i,
                parameter="clock_hz",
                value=clock * 1e6,
                reason=(
                    "clock_hz must be positive and finite, "
                    f"got {clock * 1e6}"
                ),
                point=space.point(i),
            )
            for i, clock in ((0, 0.0), (2, -5.0), (4, float("inf")))
        )
        # Records equal plain tuples too: check the type on its own.
        assert all(type(failure) is PointFailure for failure in failures)

    def test_empty_when_nothing_failed(self, pdf1d_rat):
        space = DesignSpace.grid(pdf1d_rat, clock_mhz=[100.0, 150.0])
        valid, failures = quarantine_rows(space.to_batch(check=False), space)
        assert failures == ()
        assert valid.tolist() == [0, 1]
        result = explore(space, on_error="quarantine")
        assert result.failures == () and result.n_failed == 0

    def test_keeps_no_input_column_alive(self, simple_rat):
        clock = np.array([1e8, 0.0, 2e8, -1.0])
        alpha = np.array([0.5, 0.5, 1.5, 0.5])
        refs = [weakref.ref(clock), weakref.ref(alpha)]
        batch = BatchInput.from_base(
            simple_rat, 4,
            {"clock_hz": clock, "alpha_write": alpha, "alpha_read": alpha},
            check=False,
        )
        _, failures = quarantine_rows(batch)
        del batch, clock, alpha
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert [(f.index, f.parameter) for f in failures] == [
            (1, "clock_hz"), (2, "alpha_write"), (3, "clock_hz"),
        ]


class TestSkipTakesOnce:
    @pytest.mark.parametrize("clocks, takes", [
        ([75.0, 100.0, 150.0], 0),
        ([75.0, 0.0, 150.0], 1),
    ])
    def test_skip_gathers_the_surviving_rows_once(
        self, pdf1d_rat, monkeypatch, clocks, takes
    ):
        calls = []
        take = BatchInput.take

        def counting_take(self, *args, **kwargs):
            calls.append(len(args[0]))
            return take(self, *args, **kwargs)

        monkeypatch.setattr(BatchInput, "take", counting_take)
        space = DesignSpace.grid(pdf1d_rat, clock_mhz=clocks)
        result = explore(space, on_error="skip")
        assert len(calls) == takes
        kept = [i for i, clock in enumerate(clocks) if clock > 0]
        assert result.indices.tolist() == kept
        assert result.prediction.batch.clock_hz.tolist() == [
            clocks[i] * 1e6 for i in kept
        ]
