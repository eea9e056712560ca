"""PredictionPlan tests: scalar parity, buffers, observability.

The plan's contract is that reusing buffers changes *cost*, never
*bits*: every result column must be IEEE-754-identical to scalar
``predict`` row by row, across every staging shape the engine supports —
from_base broadcast batches, from_inputs row batches, slices, batches
spanning several kernel tiles, and the ``check=False`` quarantine flow —
while reusing buffers across calls and growing them without state
leakage.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import get_case_study, list_case_studies
from repro.core.batch import (
    DEFAULT_TILE,
    BatchInput,
    batch_predict,
    mark_rows_valid,
    row_violations,
)
from repro.core.buffering import BufferingMode
from repro.core.plan import PredictionPlan
from repro.core.throughput import predict
from repro.errors import ParameterError
from repro.obs import get_metrics

from tests.conftest import assert_matches_scalar, rat_inputs

SINGLE = BufferingMode.SINGLE
MODES = (BufferingMode.SINGLE, BufferingMode.DOUBLE)


def space_batch(base, n, seed=7):
    """A from_base batch sweeping clock and both alphas over ``base``."""
    rng = np.random.default_rng(seed)
    return BatchInput.from_base(base, n, {
        "clock_hz": rng.uniform(50e6, 300e6, n),
        "alpha_write": rng.uniform(0.1, 0.95, n),
        "alpha_read": rng.uniform(0.1, 0.95, n),
    })


class TestBitwiseParity:
    @pytest.mark.parametrize("name", list_case_studies())
    @pytest.mark.parametrize("mode", MODES)
    def test_every_registry_worksheet(self, name, mode):
        base = get_case_study(name).rat
        # Two tile boundaries and a partial last tile, through both
        # buffer policies: plan-owned views and fresh columns.
        batch = space_batch(base, 2 * DEFAULT_TILE + 3)
        assert_matches_scalar(
            batch, mode,
            PredictionPlan().evaluate(batch, mode),
            batch_predict(batch, mode),
            context=f"({name}, {mode.value})",
        )

    @pytest.mark.parametrize("mode", MODES)
    def test_from_inputs_batch(self, pdf1d_rat, pdf2d_rat, md_rat,
                               simple_rat, mode):
        # Heterogeneous rows: nothing broadcasts, the generic kernel
        # path runs, and parity must still hold.
        batch = BatchInput.from_inputs(
            [pdf1d_rat, pdf2d_rat, md_rat, simple_rat] * 7
        )
        assert batch.broadcast == frozenset()
        assert_matches_scalar(batch, mode, PredictionPlan().evaluate(batch, mode))

    def test_slices_of_a_batch(self, pdf1d_rat):
        batch = space_batch(pdf1d_rat, 1000)
        plan = PredictionPlan()
        for sliced in (batch[:10], batch[100:200], batch[::7]):
            for mode in MODES:
                assert_matches_scalar(sliced, mode, plan.evaluate(sliced, mode))

    def test_zero_output_rows(self, pdf1d_rat):
        # elements_out == 0 rows take the zero-cost output branch.
        batch = space_batch(pdf1d_rat, 500)
        columns = {
            name: getattr(batch, name).copy() for name in (
                "elements_in", "elements_out", "bytes_per_element",
                "ideal_bandwidth", "alpha_write", "alpha_read",
                "ops_per_element", "throughput_proc", "clock_hz",
                "t_soft", "n_iterations",
            )
        }
        columns["elements_out"][::3] = 0.0
        mixed = BatchInput(**columns)
        for mode in MODES:
            assert_matches_scalar(mixed, mode,
                                  PredictionPlan().evaluate(mixed, mode))

    def test_all_outputs_zero_broadcast(self, simple_rat):
        # A broadcast elements_out of exactly 0 must still zero the
        # whole t_output column, like the scalar path's short-circuit.
        import dataclasses

        base = dataclasses.replace(
            simple_rat,
            dataset=dataclasses.replace(simple_rat.dataset, elements_out=0),
        )
        batch = BatchInput.from_base(
            base, 100, {"clock_hz": np.linspace(5e7, 3e8, 100)}
        )
        for mode in MODES:
            result = PredictionPlan().evaluate(batch, mode)
            assert np.all(result.t_output == 0.0)
            assert_matches_scalar(batch, mode, result)

    @settings(max_examples=25, deadline=None)
    @given(inputs=st.lists(rat_inputs(), min_size=1, max_size=8),
           mode=st.sampled_from(MODES))
    def test_property_parity_on_random_worksheets(self, inputs, mode):
        batch = BatchInput.from_inputs(inputs)
        assert_matches_scalar(batch, mode, PredictionPlan().evaluate(batch, mode))


class TestQuarantinePath:
    def test_unchecked_batch_raises_identical_diagnostic(self, pdf1d_rat):
        batch = space_batch(pdf1d_rat, 8)
        columns = {
            name: getattr(batch, name).copy() for name in (
                "elements_in", "elements_out", "bytes_per_element",
                "ideal_bandwidth", "alpha_write", "alpha_read",
                "ops_per_element", "throughput_proc", "clock_hz",
                "t_soft", "n_iterations",
            )
        }
        columns["alpha_write"][3] = 1.7
        bad = BatchInput(**columns, check=False)
        with pytest.raises(ParameterError) as plan_error:
            PredictionPlan().evaluate(bad)
        with pytest.raises(ParameterError) as batch_error:
            batch_predict(bad)
        assert str(plan_error.value) == str(batch_error.value)
        assert "row 3" in str(plan_error.value)

    def test_quarantine_then_evaluate_matches(self, pdf1d_rat):
        batch = space_batch(pdf1d_rat, 64)
        columns = {
            name: getattr(batch, name).copy() for name in (
                "elements_in", "elements_out", "bytes_per_element",
                "ideal_bandwidth", "alpha_write", "alpha_read",
                "ops_per_element", "throughput_proc", "clock_hz",
                "t_soft", "n_iterations",
            )
        }
        columns["clock_hz"][10] = -1.0
        columns["alpha_read"][20] = 0.0
        staged = BatchInput(**columns, check=False)
        violations = row_violations(staged)
        assert {v.row for v in violations} == {10, 20}
        keep = np.array(
            [i for i in range(64) if i not in (10, 20)], dtype=np.intp
        )
        survivors = mark_rows_valid(staged.take(keep, check=False))
        for mode in MODES:
            assert_matches_scalar(
                survivors, mode, PredictionPlan().evaluate(survivors, mode)
            )

    def test_checked_batch_skips_revalidation(self, pdf1d_rat, monkeypatch):
        batch = space_batch(pdf1d_rat, 16)
        assert batch.checked
        calls = []
        monkeypatch.setattr(
            type(batch), "_validate",
            lambda self: calls.append(1),
        )
        PredictionPlan().evaluate(batch)
        assert not calls


class TestBuffers:
    def test_capacity_regrowth_preserves_results(self, pdf1d_rat):
        plan = PredictionPlan(capacity=8)
        assert plan.capacity == 8
        assert plan.grows == 0
        for n in (4, 8, 9, 100, 3000):
            batch = space_batch(pdf1d_rat, n, seed=n)
            assert_matches_scalar(batch, SINGLE, plan.evaluate(batch),
                                  context=f"(n={n})")
        assert plan.capacity >= 3000
        assert plan.grows > 0

    def test_growth_is_geometric(self, pdf1d_rat):
        plan = PredictionPlan(capacity=16)
        for n in range(17, 40):
            plan.evaluate(space_batch(pdf1d_rat, n))
        # Linear growth would reallocate ~23 times; geometric stays low.
        assert plan.grows <= 2

    def test_repeated_evaluates_do_not_leak_state(self, pdf1d_rat,
                                                  pdf2d_rat):
        plan = PredictionPlan()
        first = space_batch(pdf1d_rat, 300, seed=1)
        plan.evaluate(first)
        plan.evaluate(space_batch(pdf2d_rat, 200, seed=2))
        plan.evaluate(space_batch(pdf1d_rat, 17, seed=3))
        # Same plan, same input, after unrelated work: exact again.
        assert_matches_scalar(first, SINGLE, plan.evaluate(first))

    def test_views_invalidate_but_copies_survive(self, pdf1d_rat):
        plan = PredictionPlan()
        batch = space_batch(pdf1d_rat, 50, seed=1)
        other = space_batch(pdf1d_rat, 50, seed=2)
        viewed = plan.evaluate(batch)
        copied = plan.evaluate(batch, copy=True)
        snapshot = copied.speedup.copy()
        plan.evaluate(other)  # clobbers the shared buffers
        expected = [predict(batch.row(i)).speedup for i in range(len(batch))]
        assert viewed.speedup.tolist() != expected
        assert np.array_equal(copied.speedup, snapshot)
        assert copied.speedup.tolist() == expected

    def test_evaluate_steady_state_allocates_no_arrays(self, pdf1d_rat):
        # tracemalloc sees numpy's array allocations; after warm-up an
        # evaluate must not create any new array buffers.
        import tracemalloc

        plan = PredictionPlan(capacity=4096)
        batch = space_batch(pdf1d_rat, 4096)
        plan.evaluate(batch)
        tracemalloc.start()
        base_snapshot = tracemalloc.take_snapshot()
        plan.evaluate(batch)
        diff = tracemalloc.take_snapshot().compare_to(
            base_snapshot, "lineno"
        )
        tracemalloc.stop()
        grown = sum(stat.size_diff for stat in diff if stat.size_diff > 0)
        # Python-object churn (views, the returned dataclass) is a few
        # hundred bytes; a single leaked 4096-row column would be 32 KB.
        assert grown < 16_384, f"evaluate allocated {grown} bytes"


class TestValidation:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ParameterError, match="capacity"):
            PredictionPlan(capacity=-1)

    def test_rejects_bad_mode(self, pdf1d_rat):
        plan = PredictionPlan()
        with pytest.raises(ParameterError, match="buffering mode"):
            plan.evaluate(space_batch(pdf1d_rat, 4), "both")


class TestObservability:
    def test_compiles_counter_and_span(self, pdf1d_rat):
        compiles = get_metrics().counter("plan.compiles")
        before = compiles.value
        PredictionPlan()
        assert compiles.value == before + 1

    def test_evaluate_metrics_advance(self, pdf1d_rat):
        metrics = get_metrics()
        plan = PredictionPlan()
        evaluates = metrics.counter("plan.evaluates").value
        points = metrics.counter("plan.points").value
        plan.evaluate(space_batch(pdf1d_rat, 123))
        assert metrics.counter("plan.evaluates").value == evaluates + 1
        assert metrics.counter("plan.points").value == points + 123
        assert plan.evaluations == 1

    def test_buffer_grow_counter(self, pdf1d_rat):
        metrics = get_metrics()
        before = metrics.counter("plan.buffer_grows").value
        plan = PredictionPlan(capacity=4)
        plan.evaluate(space_batch(pdf1d_rat, 64))
        assert metrics.counter("plan.buffer_grows").value == before + 1
