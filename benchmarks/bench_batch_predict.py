"""Batch prediction engine throughput vs the scalar evaluator.

Times :func:`repro.core.batch.batch_predict` over design spaces of 1e2,
1e4 and 1e6 points and compares against a scalar ``predict`` loop.  The
scalar side is timed over a capped subsample (its per-point cost is
size-independent) so the 1e6 case does not take minutes.  Both timed
sides take one discarded warm-up call and best-of-3 timing, so reported
numbers are steady-state throughput rather than first-touch page-fault
or import-warm-up cost.  Asserts the batch engine wins at every size, by
>= :data:`RATIO_FLOOR_1E4` at 1e4 points and by >= 50x at a million
points, and records the measured points/sec and speedup ratios as
gauges in the session record.

Two end-to-end ``explore()`` cases run beside it: the default path at
1e6 points, and the quarantine path at 2.5e5 points with ~2% invalid
points, whose NaN rows, failure reasons and sampled valid rows are
checked against the scalar path.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.apps import get_case_study
from repro.core.batch import _RESULT_COLUMNS, batch_predict
from repro.core.buffering import BufferingMode
from repro.core.throughput import predict
from repro.errors import ParameterError
from repro.explore import DesignSpace

from .conftest import record_gauge

#: Benchmark sizes: small (dispatch-dominated), medium, large (the
#: ISSUE's 1e6-point target where the >= 50x floor applies).
SIZES = (100, 10_000, 1_000_000)

#: Scalar predictions are timed over at most this many points; the
#: per-point cost is extrapolated to the full space.
SCALAR_CAP = 2_000

#: Floor on the 1e4-point batch/scalar ratio: 0.85 x 411.5x, the ratio
#: the last committed perf record held for this size (commit 6646f07,
#: a 1-CPU runner) less the 15% its regression ratchet tolerated.
#: Host-bound: a 2-vCPU host measures 140-320x here, so CI runs this
#: size in a step of its own.
RATIO_FLOOR_1E4 = 0.85 * 411.5


def _timed(fn, *args):
    started = time.perf_counter()
    fn(*args)
    return time.perf_counter() - started


def _space(n: int) -> DesignSpace:
    base = get_case_study("pdf1d").rat
    return DesignSpace.random(
        base, n, seed=42, clock_mhz=(50, 300), alpha=(0.1, 0.95)
    )


def _scalar_points_per_sec(space: DesignSpace, mode: BufferingMode) -> float:
    n = min(len(space), SCALAR_CAP)
    designs = [space.design(i) for i in range(n)]

    def run() -> None:
        for rat in designs:
            predict(rat, mode)

    # Same discipline as the batch side: one discarded warm-up pass (the
    # first call pays import/bytecode/allocator warm-up) and best-of-3,
    # so the speedup-ratio floors compare steady states on both sides.
    run()
    elapsed = min(_timed(run) for _ in range(3))
    return n / elapsed


@pytest.mark.parametrize("n", SIZES)
def test_batch_vs_scalar(n, show):
    space = _space(n)
    mode = BufferingMode.SINGLE
    batch = space.to_batch()

    prediction = batch_predict(batch, mode)  # warm-up (page-faults pages)
    batch_elapsed = min(
        _timed(batch_predict, batch, mode) for _ in range(3)
    )
    batch_pps = n / batch_elapsed

    scalar_pps = _scalar_points_per_sec(space, mode)
    ratio = batch_pps / scalar_pps

    record_gauge(f"bench.batch_predict.{n}.batch_points_per_sec", batch_pps)
    record_gauge(f"bench.batch_predict.{n}.scalar_points_per_sec", scalar_pps)
    record_gauge(f"bench.batch_predict.{n}.speedup_ratio", ratio)

    show(
        f"batch_predict @ {n:,} points: "
        f"batch {batch_pps:,.0f} pts/s vs scalar {scalar_pps:,.0f} pts/s "
        f"-> {ratio:.1f}x"
    )

    # Spot-check correctness on the timed result.
    i = prediction.argbest()
    assert float(prediction.speedup[i]) == pytest.approx(
        predict(space.design(i), mode).speedup, rel=1e-12
    )

    assert ratio > 1.0, f"batch slower than scalar at {n} points"
    if n == 10_000:
        assert ratio >= RATIO_FLOOR_1E4, (
            f"batch engine only {ratio:.1f}x scalar at {n} points "
            f"(floor {RATIO_FLOOR_1E4:.1f}x)"
        )
    if n >= 1_000_000:
        assert ratio >= 50.0, (
            f"batch engine only {ratio:.1f}x scalar at {n} points "
            "(target >= 50x)"
        )


def test_explore_pipeline_throughput(show):
    """End-to-end explore() (space -> batch -> chunks) at 1e6 points."""
    from repro.explore import explore

    space = _space(1_000_000)
    result = explore(space)
    record_gauge(
        "bench.explore.1000000.points_per_sec", result.points_per_sec
    )
    show(
        f"explore @ 1,000,000 points: {result.points_per_sec:,.0f} pts/s "
        f"({result.elapsed_s:.3f} s end-to-end)"
    )
    assert len(result) == 1_000_000
    scalar_pps = _scalar_points_per_sec(space, BufferingMode.SINGLE)
    assert result.points_per_sec > scalar_pps


#: The quarantine case: points, share of invalid points, valid rows
#: compared with scalar ``predict()``.
QUARANTINE_POINTS = 250_000
QUARANTINE_INVALID = 0.02
QUARANTINE_SAMPLED = 256


def _quarantine_space() -> tuple[DesignSpace, np.ndarray]:
    """A random clock x alpha space with one bad field per invalid point."""
    rng = np.random.default_rng(2007)
    n = QUARANTINE_POINTS
    clock = rng.uniform(50.0, 300.0, n)
    alpha = rng.uniform(0.1, 0.95, n)
    bad = rng.random(n) < QUARANTINE_INVALID
    kind = rng.integers(0, 3, n)
    clock[bad & (kind == 0)] *= -1.0
    alpha[bad & (kind == 1)] += 1.0
    alpha[bad & (kind == 2)] = 0.0
    space = DesignSpace(
        base=get_case_study("pdf1d").rat,
        axes=("clock_mhz", "alpha"),
        values=np.column_stack([clock, alpha]),
    )
    return space, bad


def _scalar_quarantine_points_per_sec(space: DesignSpace) -> float:
    """The scalar loop's rate: build, validate and predict each design."""
    n = min(len(space), SCALAR_CAP)

    def run() -> None:
        for i in range(n):
            try:
                predict(space.design(i), BufferingMode.SINGLE)
            except ParameterError:
                pass

    run()
    return n / min(_timed(run) for _ in range(3))


def test_explore_quarantine_throughput(show):
    """End-to-end explore(on_error="quarantine") at 2.5e5 points."""
    from repro.explore import explore

    space, bad = _quarantine_space()
    explore(space, on_error="quarantine")  # warm-up
    result = min(
        (explore(space, on_error="quarantine") for _ in range(3)),
        key=lambda run: run.elapsed_s,
    )
    prediction = result.prediction
    assert len(prediction) == QUARANTINE_POINTS
    assert np.array_equal(np.isnan(prediction.speedup), bad)
    for name in _RESULT_COLUMNS:
        assert np.isnan(getattr(prediction, name)[bad]).all()

    expected = []
    for i in np.flatnonzero(bad).tolist():
        with pytest.raises(ParameterError) as excinfo:
            space.design(i)
        expected.append((i, str(excinfo.value), space.point(i)))
    assert [(f.index, f.reason, f.point) for f in result.failures] == expected

    rows = np.random.default_rng(7).choice(
        np.flatnonzero(~bad), QUARANTINE_SAMPLED, replace=False
    )
    for i in rows.tolist():
        reference = predict(space.design(i), BufferingMode.SINGLE)
        got = np.array([getattr(prediction, f)[i] for f in _RESULT_COLUMNS])
        want = np.array([getattr(reference, f) for f in _RESULT_COLUMNS])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), i

    scalar_pps = _scalar_quarantine_points_per_sec(space)
    record_gauge(
        f"bench.explore_quarantine.{QUARANTINE_POINTS}.points_per_sec",
        result.points_per_sec,
    )
    show(
        f"explore(on_error='quarantine') @ {QUARANTINE_POINTS:,} points, "
        f"{result.n_failed:,} quarantined: "
        f"{result.points_per_sec:,.0f} pts/s "
        f"({result.elapsed_s * 1e3:.1f} ms) vs scalar loop "
        f"{scalar_pps:,.0f} pts/s"
    )
    assert result.points_per_sec > scalar_pps
