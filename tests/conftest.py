"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.params import (
    CommunicationParams,
    ComputationParams,
    DatasetParams,
    RATInput,
    SoftwareParams,
)

# ---------------------------------------------------------------------------
# Canonical worksheet inputs (the paper's three case studies)
# ---------------------------------------------------------------------------


@pytest.fixture
def pdf1d_rat() -> RATInput:
    """Paper Table 2 at 150 MHz."""
    from repro.apps.pdf1d.study import rat_input

    return rat_input(clock_mhz=150.0)


@pytest.fixture
def pdf2d_rat() -> RATInput:
    """Paper Table 5 at 150 MHz."""
    from repro.apps.pdf2d.study import rat_input

    return rat_input(clock_mhz=150.0)


@pytest.fixture
def md_rat() -> RATInput:
    """Paper Table 8 at 100 MHz."""
    from repro.apps.md.study import rat_input

    return rat_input(clock_mhz=100.0)


@pytest.fixture
def simple_rat() -> RATInput:
    """A small, hand-checkable worksheet input.

    t_input = 1000*4 / (0.5 * 1e8)  = 8.0e-5 s
    t_output = 500*4 / (0.25 * 1e8) = 8.0e-5 s  -> t_comm = 1.6e-4 s
    t_comp = 1000*100 / (1e8 * 10)  = 1.0e-4 s
    SB: 10 * 2.6e-4 = 2.6e-3 s; DB: 10 * 1.6e-4 = 1.6e-3 s
    """
    return RATInput(
        name="simple",
        dataset=DatasetParams(elements_in=1000, elements_out=500,
                              bytes_per_element=4),
        communication=CommunicationParams(
            ideal_bandwidth=1e8, alpha_write=0.5, alpha_read=0.25
        ),
        computation=ComputationParams(
            ops_per_element=100, throughput_proc=10, clock_hz=1e8
        ),
        software=SoftwareParams(t_soft=1.0, n_iterations=10),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for data-driven tests."""
    return np.random.default_rng(20070911)


# ---------------------------------------------------------------------------
# Hypothesis strategies for valid worksheet inputs
# ---------------------------------------------------------------------------

def rat_inputs() -> st.SearchStrategy[RATInput]:
    """Random *valid* RATInput values spanning realistic magnitudes."""
    return st.builds(
        RATInput,
        dataset=st.builds(
            DatasetParams,
            elements_in=st.integers(min_value=1, max_value=10**7),
            elements_out=st.integers(min_value=0, max_value=10**7),
            bytes_per_element=st.sampled_from([1, 2, 4, 8, 16, 36]),
        ),
        communication=st.builds(
            CommunicationParams,
            ideal_bandwidth=st.floats(min_value=1e6, max_value=1e11),
            alpha_write=st.floats(min_value=1e-3, max_value=1.0),
            alpha_read=st.floats(min_value=1e-3, max_value=1.0),
        ),
        computation=st.builds(
            ComputationParams,
            ops_per_element=st.floats(min_value=1.0, max_value=1e7),
            throughput_proc=st.floats(min_value=1e-2, max_value=1e4),
            clock_hz=st.floats(min_value=1e6, max_value=1e9),
        ),
        software=st.builds(
            SoftwareParams,
            t_soft=st.floats(min_value=1e-6, max_value=1e6),
            n_iterations=st.integers(min_value=1, max_value=10**6),
        ),
        name=st.just("hypothesis"),
    )


# ---------------------------------------------------------------------------
# Parity oracle
# ---------------------------------------------------------------------------

#: BatchPrediction result columns, in field order.
RESULT_COLUMNS = (
    "t_input", "t_output", "t_comm", "t_comp", "t_rc",
    "speedup", "util_comp", "util_comm",
)


def assert_matches_scalar(batch, mode, *results, context=""):
    """Every row of each batch result equals scalar ``predict`` exactly.

    Scalar :func:`~repro.core.throughput.predict` is the readable
    reference implementation of Equations (1)-(11); the vector kernel
    must reproduce its IEEE-754 bits on every row and column.
    """
    from repro.core.throughput import predict

    tables = []
    for result in results:
        assert len(result) == len(batch)
        tables.append(
            {name: getattr(result, name).tolist() for name in RESULT_COLUMNS}
        )
    for i in range(len(batch)):
        scalar = predict(batch.row(i), mode)
        for name in RESULT_COLUMNS:
            expected = getattr(scalar, name)
            for columns in tables:
                assert columns[name][i] == expected, (
                    f"{name} row {i} diverged from scalar predict {context}"
                )


def assert_explore_rows_match_scalar(result, rows, context=""):
    """Prediction rows ``rows`` of an ``explore()`` result equal scalar
    ``predict()`` of their designs exactly (every result column).

    Under ``on_error="skip"`` prediction row ``i`` is design
    ``result.indices[i]``; otherwise it is design ``i``.
    """
    from repro.core.batch import BatchPrediction

    rows = np.asarray(rows, dtype=np.intp)
    designs = rows if result.indices is None else result.indices[rows]
    batch = result.space.to_batch(check=False).take(designs)
    picked = BatchPrediction(batch, result.mode, *(
        getattr(result.prediction, name)[rows] for name in RESULT_COLUMNS
    ))
    assert_matches_scalar(batch, result.mode, picked, context=context)
