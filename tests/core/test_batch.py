"""Batch prediction engine tests: parity, round-tripping, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import (
    BatchInput,
    batch_predict,
    mark_rows_valid,
    row_violations,
    valid_row_mask,
)
from repro.core.buffering import BufferingMode
from repro.core.params import fraction_violation
from repro.core.throughput import predict
from repro.errors import ParameterError
from repro.obs import get_metrics

from tests.conftest import assert_matches_scalar, rat_inputs


def _random_inputs(base, rng, n):
    """A varied family of worksheets derived from one base."""
    clocks = rng.uniform(25e6, 400e6, n)
    procs = rng.uniform(0.5, 64.0, n)
    alphas = rng.uniform(0.05, 1.0, n)
    return [
        base.with_clock_hz(c).with_throughput_proc(t).with_alphas(a, a)
        for c, t, a in zip(clocks, procs, alphas)
    ]


class TestBatchInput:
    def test_from_inputs_round_trips(self, pdf1d_rat, md_rat, simple_rat):
        inputs = [pdf1d_rat, md_rat, simple_rat]
        batch = BatchInput.from_inputs(inputs)
        assert len(batch) == 3
        for i, rat in enumerate(inputs):
            assert batch.row(i) == rat
        assert batch.to_inputs() == inputs

    def test_from_inputs_empty_rejected(self):
        with pytest.raises(ParameterError, match="at least one"):
            BatchInput.from_inputs([])

    def test_from_base_broadcasts_scalars(self, simple_rat):
        batch = BatchInput.from_base(simple_rat, 4)
        assert len(batch) == 4
        for i in range(4):
            assert batch.row(i) == simple_rat.with_name("")

    def test_from_base_override_column(self, simple_rat):
        batch = BatchInput.from_base(
            simple_rat, 3, {"clock_hz": [1e8, 2e8, 3e8]}
        )
        assert batch.row(2).computation.clock_hz == 3e8
        assert batch.row(0).dataset.elements_in == 1000

    def test_from_base_unknown_column(self, simple_rat):
        with pytest.raises(ParameterError, match="unknown batch column"):
            BatchInput.from_base(simple_rat, 2, {"bogus": [1, 2]})

    def test_from_base_length_mismatch(self, simple_rat):
        with pytest.raises(ParameterError, match="rows"):
            BatchInput.from_base(simple_rat, 3, {"clock_hz": [1e8, 2e8]})

    def test_validation_names_field_and_row(self, simple_rat):
        with pytest.raises(ParameterError, match="alpha_write.*row 1"):
            BatchInput.from_base(simple_rat, 3, {"alpha_write": [0.5, 1.5, 0.5]})
        with pytest.raises(ParameterError, match="elements_in"):
            BatchInput.from_base(simple_rat, 2, {"elements_in": [100, -1]})
        with pytest.raises(ParameterError, match="n_iterations"):
            BatchInput.from_base(simple_rat, 2, {"n_iterations": [1, 0]})
        with pytest.raises(ParameterError, match="clock_hz"):
            BatchInput.from_base(simple_rat, 2, {"clock_hz": [1e8, float("nan")]})

    def test_slicing(self, pdf1d_rat, rng):
        inputs = _random_inputs(pdf1d_rat, rng, 10)
        batch = BatchInput.from_inputs(inputs)
        chunk = batch[3:7]
        assert len(chunk) == 4
        assert chunk.row(0) == inputs[3].with_name(chunk.row(0).name)
        with pytest.raises(ParameterError, match="slice"):
            batch[3]

    def test_names_length_checked(self, simple_rat):
        with pytest.raises(ParameterError, match="names"):
            BatchInput.from_base(simple_rat, 3, names=("a",))


class TestBatchPredictParity:
    @pytest.mark.parametrize("mode", list(BufferingMode))
    def test_matches_scalar_exactly(self, pdf1d_rat, rng, mode):
        inputs = _random_inputs(pdf1d_rat, rng, 200)
        batch = BatchInput.from_inputs(inputs)
        assert_matches_scalar(batch, mode, batch_predict(batch, mode))

    @given(rat_inputs())
    @settings(max_examples=30, deadline=None)
    def test_matches_scalar_on_hypothesis_inputs(self, rat):
        # One row streamed (from_inputs) and one with every column a
        # broadcast scalar (from_base): both kernel paths, exact bits.
        for batch in (BatchInput.from_inputs([rat]),
                      BatchInput.from_base(rat, 1)):
            for mode in BufferingMode:
                assert_matches_scalar(batch, mode, batch_predict(batch, mode))

    def test_zero_output_elements(self, pdf1d_rat):
        # pdf1d communicates a single output element; force zero to hit
        # the scalar short-circuit branch.
        import dataclasses

        rat = dataclasses.replace(
            pdf1d_rat,
            dataset=dataclasses.replace(pdf1d_rat.dataset, elements_out=0),
        )
        batch = BatchInput.from_inputs([rat])
        result = batch_predict(batch)
        assert float(result.t_output[0]) == 0.0
        assert_matches_scalar(batch, BufferingMode.SINGLE, result)

    def test_row_rehydrates_prediction(self, md_rat):
        result = batch_predict(BatchInput.from_inputs([md_rat]))
        row = result.row(0)
        scalar = predict(md_rat)
        assert row.rat == md_rat
        assert row.mode is BufferingMode.SINGLE
        assert row.bound == scalar.bound
        assert row.as_dict() == scalar.as_dict()

    @pytest.mark.parametrize("mode", list(BufferingMode))
    def test_fractional_counts_rehydrate_to_their_row(self, pdf1d_rat, mode):
        # Counts that are not whole numbers of at least 1 stay floats, so
        # each rehydrated worksheet predicts exactly its batch row.
        batch = BatchInput.from_base(
            pdf1d_rat, 3,
            {"elements_in": [0.5, 512.7, 512.0],
             "n_iterations": [2.5, 400.0, 1.0]},
        )
        prediction = batch_predict(batch, mode)
        for i in range(len(batch)):
            assert predict(batch.row(i), mode) == prediction.row(i)
        assert batch.row(1).dataset.elements_in == 512.7
        assert type(batch.row(2).dataset.elements_in) is int
        assert type(batch.row(2).software.n_iterations) is int

    def test_rows_with_mismatched_inputs_rejected(self, md_rat):
        result = batch_predict(BatchInput.from_inputs([md_rat]))
        with pytest.raises(ParameterError, match="inputs"):
            list(result.rows([md_rat, md_rat]))


class TestBatchPredictionHelpers:
    def test_computation_bound_column(self, pdf1d_rat, md_rat):
        result = batch_predict(BatchInput.from_inputs([pdf1d_rat, md_rat]))
        expected = [predict(r).bound == "computation"
                    for r in (pdf1d_rat, md_rat)]
        assert list(result.computation_bound) == expected

    def test_argbest(self, pdf1d_rat):
        inputs = [pdf1d_rat.with_clock_hz(c) for c in (75e6, 150e6, 100e6)]
        result = batch_predict(BatchInput.from_inputs(inputs))
        assert result.argbest() == 1

    def test_as_records(self, simple_rat):
        result = batch_predict(BatchInput.from_inputs([simple_rat]))
        (record,) = result.as_records()
        assert record["name"] == "simple"
        assert record["speedup"] == predict(simple_rat).speedup

    def test_invalid_mode_rejected(self, simple_rat):
        with pytest.raises(ParameterError):
            batch_predict(BatchInput.from_inputs([simple_rat]), "triple")


class TestBatchMetrics:
    def test_counter_incremented_by_batch_size(self, simple_rat):
        metrics = get_metrics()
        before = metrics.counter("throughput.predictions").value
        batch_predict(BatchInput.from_base(simple_rat, 17))
        assert metrics.counter("throughput.predictions").value == before + 17

    def test_speedup_histogram_fed_in_bulk(self, simple_rat):
        metrics = get_metrics()
        histogram = metrics.histogram("throughput.speedup")
        before = histogram.count
        batch_predict(BatchInput.from_base(simple_rat, 23))
        assert histogram.count == before + 23


class TestBroadcastMetadata:
    """The trusted constant-column metadata compiled plans exploit."""

    def test_from_base_marks_everything_broadcast(self, simple_rat):
        batch = BatchInput.from_base(simple_rat, 10)
        assert len(batch.broadcast) == 11

    def test_array_override_clears_broadcast(self, simple_rat):
        batch = BatchInput.from_base(
            simple_rat, 10,
            {"clock_hz": np.linspace(5e7, 3e8, 10), "alpha_write": 0.5},
        )
        assert "clock_hz" not in batch.broadcast
        assert "alpha_write" in batch.broadcast  # scalar override: constant
        assert "t_soft" in batch.broadcast

    def test_from_inputs_has_no_broadcast(self, simple_rat):
        assert BatchInput.from_inputs([simple_rat]).broadcast == frozenset()

    def test_slicing_preserves_broadcast_and_checked(self, simple_rat):
        batch = BatchInput.from_base(
            simple_rat, 20, {"clock_hz": np.linspace(5e7, 3e8, 20)}
        )
        sliced = batch[3:9]
        assert sliced.broadcast == batch.broadcast
        assert sliced.checked  # rules are row-local: subsets stay valid

    def test_take_preserves_broadcast(self, simple_rat):
        batch = BatchInput.from_base(simple_rat, 20)
        taken = batch.take(np.array([1, 5, 7], dtype=np.intp))
        assert taken.broadcast == batch.broadcast

    def test_constant_columns_are_zero_stride_views(self, simple_rat):
        clocks = np.linspace(5e7, 3e8, 10)
        batch = BatchInput.from_base(
            simple_rat, 10, {"clock_hz": clocks, "alpha_write": 0.5}
        )
        for name in batch.broadcast:
            column = getattr(batch, name)
            assert column.strides == (0,), name
            assert not column.flags.writeable, name
        assert batch.clock_hz is clocks  # an override column is not copied
        taken = batch.take(np.array([1, 5, 7], dtype=np.intp))
        assert taken.t_soft.strides == (0,)
        assert taken.clock_hz.tolist() == clocks[[1, 5, 7]].tolist()

    def test_invalid_scalar_override_diagnostics(self, simple_rat):
        # A broadcast column is checked on its first row, but the
        # diagnostics read exactly as when every row was checked.
        expected = fraction_violation("alpha_write", 1.5)
        with pytest.raises(ParameterError) as excinfo:
            BatchInput.from_base(simple_rat, 5, {"alpha_write": 1.5})
        assert str(excinfo.value) == f"{expected} at row 0"
        staged = BatchInput.from_base(
            simple_rat, 5, {"alpha_write": 1.5}, check=False
        )
        violations = row_violations(staged)
        assert [v.row for v in violations] == [0, 1, 2, 3, 4]
        assert {(v.column, v.value, v.message) for v in violations} == {
            ("alpha_write", 1.5, expected)
        }
        assert not valid_row_mask(staged).any()

    def test_shared_column_reported_once_per_row(self, simple_rat):
        # The alpha axis writes one array to both alpha fields.
        alphas = np.array([0.5, 1.5, 0.25, 0.0])
        staged = BatchInput.from_base(
            simple_rat, 4, {"alpha_write": alphas, "alpha_read": alphas},
            check=False,
        )
        assert staged.alpha_write is staged.alpha_read
        violations = row_violations(staged)
        assert [(v.row, v.column) for v in violations] == [
            (1, "alpha_write"), (3, "alpha_write"),
        ]
        assert valid_row_mask(staged).tolist() == [True, False, True, False]
        with pytest.raises(ParameterError, match="alpha_write.*at row 1"):
            BatchInput.from_base(
                simple_rat, 4, {"alpha_write": alphas, "alpha_read": alphas}
            )

    def test_take_gathers_a_shared_column_once(self, simple_rat):
        alphas = np.array([0.5, 0.75, 0.25, 1.0])
        batch = BatchInput.from_base(
            simple_rat, 4, {"alpha_write": alphas, "alpha_read": alphas}
        )
        taken = batch.take(np.array([0, 2, 3], dtype=np.intp))
        assert taken.alpha_write is taken.alpha_read
        assert taken.alpha_write.tolist() == [0.5, 0.25, 1.0]

    def test_unknown_broadcast_name_rejected(self, simple_rat):
        batch = BatchInput.from_base(simple_rat, 4)
        columns = {
            name: getattr(batch, name)
            for name in (
                "elements_in", "elements_out", "bytes_per_element",
                "ideal_bandwidth", "alpha_write", "alpha_read",
                "ops_per_element", "throughput_proc", "clock_hz",
                "t_soft", "n_iterations",
            )
        }
        with pytest.raises(ParameterError, match="unknown broadcast"):
            BatchInput(**columns, broadcast=frozenset({"warp_drive"}))

    def test_broadcast_batch_predict_parity(self, simple_rat):
        # batch_predict reads broadcast columns once as scalars; a
        # broadcast-rich batch and a plain batch with identical columns
        # both agree with scalar predict exactly.
        rich = BatchInput.from_base(
            simple_rat, 50, {"clock_hz": np.linspace(5e7, 3e8, 50)}
        )
        plain = BatchInput(*(
            getattr(rich, name).copy()
            for name in (
                "elements_in", "elements_out", "bytes_per_element",
                "ideal_bandwidth", "alpha_write", "alpha_read",
                "ops_per_element", "throughput_proc", "clock_hz",
                "t_soft", "n_iterations",
            )
        ))
        assert plain.broadcast == frozenset()
        for batch in (rich, plain):
            assert_matches_scalar(
                batch, BufferingMode.SINGLE, batch_predict(batch)
            )


class TestMarkRowsValid:
    def test_upgrades_unchecked_batch(self, simple_rat):
        batch = BatchInput.from_base(simple_rat, 5, check=False)
        assert not batch.checked
        upgraded = mark_rows_valid(batch)
        assert upgraded is batch
        assert batch.checked

    def test_checked_batch_is_untouched(self, simple_rat):
        batch = BatchInput.from_base(simple_rat, 5)
        assert mark_rows_valid(batch) is batch
        assert batch.checked

    def test_marked_batch_skips_validation_in_predict(self, simple_rat):
        # An (incorrectly) trusted invalid batch flows straight through:
        # mark_rows_valid is an explicit caller assertion, not a check.
        batch = BatchInput.from_base(
            simple_rat, 3, {"alpha_write": np.array([0.5, 7.0, 0.5])},
            check=False,
        )
        mark_rows_valid(batch)
        result = batch_predict(batch)  # no ParameterError raised
        assert len(result) == 3


#: Worksheet inputs that can only speed a design up when raised.
_SPEEDUP_KNOBS = ("clock_hz", "throughput_proc", "alpha_write", "alpha_read")


class TestMonotonicity:
    """Raising a speed knob never lowers the vector kernel's speedup.

    Every IEEE-754 operation rounds monotonically, so the property holds
    exactly, not merely approximately.  The raised value streams as a
    column while the other fields broadcast.
    """

    @given(rat=rat_inputs(), knob=st.sampled_from(_SPEEDUP_KNOBS),
           factor=st.floats(min_value=1.0, max_value=16.0))
    @settings(max_examples=60, deadline=None)
    def test_speedup_monotone_in_speed_knobs(self, rat, knob, factor):
        low = float(getattr(BatchInput.from_base(rat, 1), knob)[0])
        high = low * factor
        if knob.startswith("alpha"):
            high = min(high, 1.0)
        batch = BatchInput.from_base(rat, 2, {knob: [low, high]})
        for mode in BufferingMode:
            slow, fast = batch_predict(batch, mode).speedup
            assert fast >= slow, (knob, mode.value, low, high)
