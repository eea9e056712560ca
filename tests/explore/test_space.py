"""DesignSpace tests: samplers, edits, batch conversion."""

import numpy as np
import pytest

from repro.core.throughput import predict
from repro.errors import ParameterError
from repro.explore import DesignSpace, axis_names, explore
from repro.units import MHZ


class TestGrid:
    def test_cross_product_order(self, simple_rat):
        space = DesignSpace.grid(
            simple_rat, clock_mhz=[100, 200], alpha=[0.25, 0.5, 0.75]
        )
        assert len(space) == 6
        assert space.axes == ("clock_mhz", "alpha")
        # Last axis varies fastest.
        assert space.point(0) == {"clock_mhz": 100.0, "alpha": 0.25}
        assert space.point(1) == {"clock_mhz": 100.0, "alpha": 0.5}
        assert space.point(3) == {"clock_mhz": 200.0, "alpha": 0.25}

    def test_requires_axes(self, simple_rat):
        with pytest.raises(ParameterError, match="at least one axis"):
            DesignSpace.grid(simple_rat)

    def test_unknown_axis_rejected(self, simple_rat):
        with pytest.raises(ParameterError, match="unknown design axis"):
            DesignSpace.grid(simple_rat, warp_factor=[1, 2])

    def test_overlapping_axes_rejected(self, simple_rat):
        with pytest.raises(ParameterError, match="overlapping"):
            DesignSpace.grid(simple_rat, alpha=[0.5], alpha_write=[0.5])

    def test_keeps_read_only_axis_vectors(self, simple_rat):
        space = DesignSpace.grid(
            simple_rat, clock_mhz=[100, 200], alpha=[0.25, 0.5, 0.75]
        )
        assert [v.tolist() for v in space.grid_axes] == [
            [100.0, 200.0], [0.25, 0.5, 0.75],
        ]
        for array in (space.values, *space.grid_axes):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
        # Other spaces have no axis vectors, and freezing a space's
        # values leaves the caller's array writable.
        values = np.asfortranarray([[100.0], [200.0]])
        explicit = DesignSpace(simple_rat, ("clock_mhz",), values)
        assert explicit.grid_axes is None
        assert explicit.grid_columns() is None
        assert values.flags.writeable

    def test_grid_columns_shaped_to_axes(self, simple_rat):
        space = DesignSpace.grid(
            simple_rat, clock_mhz=[100, 200], alpha=[0.25, 0.5, 0.75]
        )
        columns = space.grid_columns()
        assert sorted(columns) == ["alpha_read", "alpha_write", "clock_hz"]
        assert columns["clock_hz"].shape == (2, 1)
        assert columns["clock_hz"].ravel().tolist() == [100 * MHZ, 200 * MHZ]
        assert columns["alpha_write"].shape == (1, 3)
        bad = DesignSpace.grid(simple_rat, clock_mhz=[100, 0], alpha=[0.5])
        assert bad.grid_columns() is None


class TestRandom:
    def test_draws_within_ranges(self, simple_rat):
        space = DesignSpace.random(
            simple_rat, 64, seed=7, clock_mhz=(50, 300), alpha=(0.1, 0.9)
        )
        assert len(space) == 64
        assert (space.values[:, 0] >= 50).all()
        assert (space.values[:, 0] <= 300).all()
        assert (space.values[:, 1] >= 0.1).all()
        assert (space.values[:, 1] <= 0.9).all()

    def test_deterministic_for_seed(self, simple_rat):
        a = DesignSpace.random(simple_rat, 16, seed=3, alpha=(0.1, 0.9))
        b = DesignSpace.random(simple_rat, 16, seed=3, alpha=(0.1, 0.9))
        assert (a.values == b.values).all()

    def test_invalid_range(self, simple_rat):
        with pytest.raises(ParameterError, match="low <= high"):
            DesignSpace.random(simple_rat, 4, alpha=(0.9, 0.1))
        with pytest.raises(ParameterError, match="n must be"):
            DesignSpace.random(simple_rat, 0, alpha=(0.1, 0.9))


class TestExplicit:
    def test_point_list(self, simple_rat):
        space = DesignSpace.explicit(
            simple_rat,
            [{"clock_mhz": 100, "alpha": 0.3}, {"clock_mhz": 150, "alpha": 0.4}],
        )
        assert len(space) == 2
        assert space.point(1) == {"clock_mhz": 150.0, "alpha": 0.4}

    def test_ragged_points_rejected(self, simple_rat):
        with pytest.raises(ParameterError, match="differ"):
            DesignSpace.explicit(
                simple_rat, [{"alpha": 0.3}, {"clock_mhz": 100}]
            )

    def test_empty_rejected(self, simple_rat):
        with pytest.raises(ParameterError, match="at least one point"):
            DesignSpace.explicit(simple_rat, [])


class TestDesignEdits:
    def test_design_applies_with_star_edits(self, simple_rat):
        space = DesignSpace.grid(
            simple_rat, clock_mhz=[200], throughput_proc=[4]
        )
        design = space.design(0)
        assert design.computation.clock_hz == 200 * MHZ
        assert design.computation.throughput_proc == 4
        # Untouched groups are preserved.
        assert design.dataset == simple_rat.dataset
        assert design.software == simple_rat.software

    def test_alpha_axis_sets_both_directions(self, simple_rat):
        design = DesignSpace.grid(simple_rat, alpha=[0.6]).design(0)
        assert design.communication.alpha_write == 0.6
        assert design.communication.alpha_read == 0.6

    def test_elements_in_axis_truncates(self, simple_rat):
        space = DesignSpace.grid(simple_rat, elements_in=[2048.7, 1.5, 1e300])
        sizes = [space.design(i).dataset.elements_in for i in range(3)]
        assert sizes == [2048, 1, int(1e300)]
        assert all(type(size) is int for size in sizes)

    def test_two_bad_axes_diagnosed_in_column_order(self, pdf1d_rat):
        # Point 1 is clock 0 and alpha 1.5: design(i), quarantine and
        # explore(on_error="fail") all name alpha_write, which comes
        # before clock_hz in worksheet column order.
        space = DesignSpace.grid(
            pdf1d_rat, clock_mhz=[0, 100], alpha=[0.5, 1.5]
        )
        with pytest.raises(ParameterError) as design:
            space.design(1)
        assert str(design.value) == "alpha_write must be in (0, 1], got 1.5"
        failures = explore(space, on_error="quarantine").failures
        assert (failures[1].index, failures[1].reason) == (1, str(design.value))
        with pytest.raises(ParameterError) as failed:
            explore(DesignSpace.explicit(pdf1d_rat, [space.point(1)]))
        assert str(failed.value) == f"{design.value} at row 0"

    @pytest.mark.parametrize(
        "value, text", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")]
    )
    def test_non_finite_elements_in_raises_parameter_error(
        self, pdf1d_rat, value, text
    ):
        # int() of NaN or inf must not pre-empt validation: design(i)
        # raises the same ParameterError quarantine reports.
        space = DesignSpace.grid(pdf1d_rat, elements_in=[value, 512])
        with pytest.raises(ParameterError) as design:
            space.design(0)
        assert str(design.value) == (
            f"elements_in must be positive and finite, got {text}"
        )
        failures = explore(space, on_error="quarantine").failures
        assert [(f.index, f.reason) for f in failures] == [
            (0, str(design.value))
        ]
        assert space.design(1).dataset.elements_in == 512

    @pytest.mark.parametrize("value, text", [
        (0.5, "0.0"), (0.0, "0.0"), (-0.0, "-0.0"), (-0.5, "-0.0"),
        (-2.5, "-2.0"), (-3.0, "-3.0"), (-1e300, "-1e+300"),
    ])
    def test_bad_finite_elements_in_diagnosed_alike(
        self, pdf1d_rat, value, text
    ):
        # design(i), quarantine and explore(on_error="fail") all name the
        # truncated size the batch column holds, sign of zero included.
        space = DesignSpace.grid(pdf1d_rat, elements_in=[value, 512])
        with pytest.raises(ParameterError) as design:
            space.design(0)
        assert str(design.value) == (
            f"elements_in must be positive and finite, got {text}"
        )
        failures = explore(space, on_error="quarantine").failures
        assert [(f.index, f.reason) for f in failures] == [
            (0, str(design.value))
        ]
        with pytest.raises(ParameterError) as failed:
            explore(space)
        assert str(failed.value) == f"{design.value} at row 0"

    def test_axis_names_sorted(self):
        names = axis_names()
        assert names == sorted(names)
        assert "clock_mhz" in names and "alpha" in names


class TestToBatch:
    def test_batch_rows_match_scalar_designs(self, pdf2d_rat):
        space = DesignSpace.grid(
            pdf2d_rat,
            clock_mhz=[75, 150],
            alpha=[0.2, 0.8],
            elements_in=[1024, 4096],
        )
        batch = space.to_batch()
        assert len(batch) == len(space) == 8
        for i in range(len(space)):
            scalar = space.design(i)
            assert batch.row(i) == scalar.with_name(batch.row(i).name)
            # And the predictions agree exactly.
            assert predict(scalar).t_rc == pytest.approx(
                predict(batch.row(i)).t_rc, rel=1e-15
            )

    @pytest.mark.parametrize("make", ["grid", "random", "explicit"])
    def test_axis_columns_contiguous(self, simple_rat, make):
        if make == "grid":
            space = DesignSpace.grid(
                simple_rat, clock_mhz=[75, 150, 200], alpha=[0.2, 0.8],
                throughput_proc=[1, 2],
            )
        elif make == "random":
            space = DesignSpace.random(
                simple_rat, 50, clock_mhz=(50, 300), alpha=(0.1, 0.9)
            )
        else:
            space = DesignSpace.explicit(simple_rat, [
                {"clock_mhz": 75.0, "alpha": 0.2},
                {"clock_mhz": 150.0, "alpha": 0.8},
            ])
        for j in range(len(space.axes)):
            assert space.values[:, j].flags.c_contiguous
        batch = space.to_batch()
        if make == "grid":
            # A grid fills one contiguous column per expanded axis
            # vector from its axes; it has no matrix to share.
            for name in ("clock_hz", "alpha_write", "throughput_proc"):
                assert getattr(batch, name).flags.c_contiguous
        else:
            # The alpha axis hands its value column on without a copy.
            assert np.shares_memory(batch.alpha_write, space.values)
        # Both alpha fields share the alpha axis's one column.
        assert batch.alpha_write is batch.alpha_read

    def test_random_values_unchanged_by_layout(self, simple_rat):
        space = DesignSpace.random(
            simple_rat, 20, seed=9, clock_mhz=(50, 300), alpha=(0.1, 0.9)
        )
        lows, highs = np.array([50.0, 0.1]), np.array([300.0, 0.9])
        draws = np.random.default_rng(9).random((20, 2))
        expected = lows + (highs - lows) * draws  # the sampler's formula
        assert space.values.tobytes(order="C") == expected.tobytes()

    def test_describe(self, simple_rat):
        text = DesignSpace.grid(simple_rat, alpha=[0.1, 0.2]).describe()
        assert "2 point(s)" in text and "alpha" in text

    def test_bad_values_shape_rejected(self, simple_rat):
        with pytest.raises(ParameterError, match="values must be"):
            DesignSpace(
                base=simple_rat, axes=("alpha",), values=np.zeros((2, 3))
            )
