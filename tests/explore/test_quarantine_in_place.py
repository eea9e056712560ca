"""In-place quarantine: every row evaluated, the failed ones NaN.

``explore(on_error="quarantine")`` evaluates all ``n`` rows in the
chunks ``on_error="fail"`` uses, the invalid ones included, and the
kernel writes NaN into each chunk's failed rows.  The oracle is the
scalar path: ``space.design(i)`` and ``predict()`` for every row.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import get_case_study
from repro.core.batch import _RESULT_COLUMNS, BatchInput, _predict_into
from repro.core.buffering import BufferingMode
from repro.core.throughput import predict
from repro.errors import ParameterError
from repro.explore import DesignSpace, explore
from repro.obs import get_metrics

#: A valid range per axis kind.
VALID = {
    "clock_hz": (1e7, 1e9),
    "clock_mhz": (10.0, 1000.0),
    "throughput_proc": (0.1, 100.0),
    "alpha": (0.01, 1.0),
    "alpha_write": (0.01, 1.0),
    "alpha_read": (0.01, 1.0),
    "elements_in": (1.0, 1e6),
}

#: Values that break the rule of some axis kind (1.5 only the alphas').
BAD = (
    float("nan"), float("inf"), float("-inf"), 0.0, -0.0, -0.5, -1.5,
    -1e3, 1.5,
)

#: The axis choices for the clock and alpha fields that write no field
#: twice.
CLOCK = ((), ("clock_hz",), ("clock_mhz",))
ALPHA = (
    (), ("alpha",), ("alpha_write",), ("alpha_read",),
    ("alpha_write", "alpha_read"),
)

STUDIES = ("pdf1d", "pdf2d", "md", "fir")


def _value(axis: str) -> st.SearchStrategy[float]:
    lo, hi = VALID[axis]
    return st.one_of(st.floats(lo, hi), st.sampled_from(BAD))


@st.composite
def spaces(draw) -> DesignSpace:
    """A grid or a point-list space over random axes, bad values mixed in."""
    axes = (
        draw(st.sampled_from(CLOCK))
        + (("throughput_proc",) if draw(st.booleans()) else ())
        + draw(st.sampled_from(ALPHA))
        + (("elements_in",) if draw(st.booleans()) else ())
    )
    if not axes:
        axes = ("clock_mhz",)
    axes = tuple(draw(st.permutations(axes)))
    base = get_case_study(draw(st.sampled_from(STUDIES))).rat
    if draw(st.booleans()):
        return DesignSpace.grid(base, **{
            axis: draw(st.lists(_value(axis), min_size=1, max_size=4))
            for axis in axes
        })
    n = draw(st.integers(1, 40))
    columns = [
        draw(st.lists(_value(axis), min_size=n, max_size=n)) for axis in axes
    ]
    return DesignSpace(
        base=base, axes=axes, values=np.array(columns).T
    )


def _metrics() -> tuple[float, int, float]:
    metrics = get_metrics()
    speedup = metrics.histogram("throughput.speedup")
    return (
        metrics.counter("throughput.predictions").value,
        speedup.count,
        speedup.sum,
    )


@settings(max_examples=200, deadline=None)
@given(
    space=spaces(),
    chunk_size=st.integers(1, 9),
    mode=st.sampled_from(list(BufferingMode)),
)
def test_valid_rows_match_scalar_failed_rows_nan(space, chunk_size, mode):
    before = _metrics()
    old = np.seterr(all="raise")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = explore(
                space, mode, chunk_size=chunk_size, on_error="quarantine"
            )
    finally:
        np.seterr(**old)
    after = _metrics()

    prediction = result.prediction
    assert len(prediction) == len(space)
    failed = {}
    valid_speedups = []
    for i in range(len(space)):
        try:
            design = space.design(i)
        except ParameterError as exc:
            failed[i] = str(exc)
            for name in _RESULT_COLUMNS:
                assert math.isnan(getattr(prediction, name)[i]), (i, name)
            continue
        reference = predict(design, mode)
        for name in _RESULT_COLUMNS:
            got = np.float64(getattr(prediction, name)[i])
            want = np.float64(getattr(reference, name))
            assert got.view(np.uint64) == want.view(np.uint64), (i, name)
        valid_speedups.append(reference.speedup)
    assert [(f.index, f.reason) for f in result.failures] == list(
        failed.items()
    )
    # The throughput metrics saw the valid rows only.
    assert after[0] - before[0] == len(valid_speedups)
    assert after[1] - before[1] == len(valid_speedups)
    # The sum accumulates over every test in the process: compare at
    # its scale.
    assert after[2] - before[2] == pytest.approx(
        math.fsum(valid_speedups), rel=1e-12, abs=1e-12 * abs(after[2])
    )


def test_only_the_failed_rows_path_enters_errstate(simple_rat, monkeypatch):
    # The service evaluates every batch through the plain path, which
    # must not pay for np.errstate.
    entered = []
    errstate = np.errstate

    def counting(**kwargs):
        entered.append(kwargs)
        return errstate(**kwargs)

    monkeypatch.setattr(np, "errstate", counting)
    out = [np.empty(2) for _ in _RESULT_COLUMNS]
    _predict_into(BatchInput.from_base(simple_rat, 2), BufferingMode.DOUBLE, out)
    assert entered == []
    batch = BatchInput.from_base(
        simple_rat, 2, {"clock_hz": [1e8, 0.0]}, check=False
    )
    _predict_into(batch, BufferingMode.DOUBLE, out, np.array([1]))
    assert entered == [{"all": "ignore"}]
    assert np.isnan([column[1] for column in out]).all()
