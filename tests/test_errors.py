"""Exception-hierarchy tests."""

import pytest

from repro.errors import (
    ExperimentError,
    GoalSeekError,
    ParameterError,
    PlatformError,
    PrecisionError,
    RATError,
    ResourceError,
    SimulationError,
    UnitError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ParameterError,
            UnitError,
            PrecisionError,
            ResourceError,
            PlatformError,
            SimulationError,
            GoalSeekError,
            ExperimentError,
        ],
    )
    def test_all_derive_from_raterror(self, exc):
        assert issubclass(exc, RATError)

    def test_value_error_compatibility(self):
        """Validation errors double as ValueError so numeric call sites
        using the stdlib idiom still catch them."""
        for exc in (ParameterError, UnitError, PrecisionError,
                    ResourceError, GoalSeekError):
            assert issubclass(exc, ValueError)

    def test_lookup_errors_are_keyerrors(self):
        assert issubclass(PlatformError, KeyError)

    def test_runtime_errors(self):
        assert issubclass(SimulationError, RuntimeError)
        assert issubclass(ExperimentError, RuntimeError)

    def test_single_except_catches_everything(self):
        """The documented catch-all actually works."""
        from repro.core.params import DatasetParams
        from repro.platforms import get_platform

        with pytest.raises(RATError):
            DatasetParams(elements_in=0, elements_out=0, bytes_per_element=1)
        with pytest.raises(RATError):
            get_platform("no-such-platform")


class TestPickleRoundTrips:
    """Errors and failure records cross process boundaries in pool mode
    (``map_designs(workers=N)``); every payload field must survive
    pickling."""

    def test_exploration_error_full_payload(self):
        import pickle

        from repro.errors import ExplorationError
        from repro.explore.runtime import ChunkFailure

        original = ExplorationError(
            "3 of 9 chunks failed",
            chunk_failures=(
                ChunkFailure(
                    index=2,
                    reason="evaluator raised",
                    error_type="ValueError",
                    lo=200,
                    hi=300,
                ),
            ),
            partial={"rows": 600},
        )
        restored = pickle.loads(pickle.dumps(original))
        assert type(restored) is ExplorationError
        assert str(restored) == str(original)
        assert restored.chunk_failures == original.chunk_failures
        assert restored.partial == original.partial
        assert restored.chunk_failures[0].describe() == (
            original.chunk_failures[0].describe()
        )

    def test_exploration_error_defaults(self):
        import pickle

        from repro.errors import ExplorationError

        restored = pickle.loads(pickle.dumps(ExplorationError("boom")))
        assert str(restored) == "boom"
        assert restored.chunk_failures == ()
        assert restored.partial is None

    def test_row_violation(self):
        import pickle

        from repro.core.batch import RowViolation

        original = RowViolation(
            row=7,
            column="clock_hz",
            value=0.0,
            message="clock_mhz must be > 0, got 0.0",
        )
        restored = pickle.loads(pickle.dumps(original))
        assert restored == original
        assert restored.message == original.message

    def test_admission_error_keeps_retry_after(self):
        import pickle

        from repro.errors import AdmissionError

        original = AdmissionError("queue full", retry_after_s=2.5)
        restored = pickle.loads(pickle.dumps(original))
        assert str(restored) == "queue full"
        assert restored.retry_after_s == 2.5


class TestServeHierarchy:
    def test_serve_errors_derive_from_raterror(self):
        from repro.errors import (
            AdmissionError,
            DeadlineError,
            LimitError,
            ServeError,
        )

        for exc in (AdmissionError, DeadlineError, LimitError):
            assert issubclass(exc, ServeError)
        assert issubclass(ServeError, RATError)
        assert issubclass(ServeError, RuntimeError)
