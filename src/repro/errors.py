"""Exception hierarchy for the RAT reproduction library.

Every error raised by :mod:`repro` derives from :class:`RATError` so callers
can catch library failures with a single ``except`` clause while still
distinguishing the broad failure classes below.
"""

from __future__ import annotations

__all__ = [
    "RATError",
    "ParameterError",
    "UnitError",
    "PrecisionError",
    "ResourceError",
    "PlatformError",
    "SimulationError",
    "ExplorationError",
    "GoalSeekError",
    "ExperimentError",
    "ObservabilityError",
    "ServeError",
    "AdmissionError",
    "DeadlineError",
    "LimitError",
]


class RATError(Exception):
    """Base class for all errors raised by the repro library."""


class ParameterError(RATError, ValueError):
    """An input parameter is missing, out of range, or inconsistent.

    Raised during validation of the RAT worksheet inputs (Table 1 of the
    paper): e.g. a negative element count, an ``alpha`` outside ``(0, 1]``,
    or a zero clock frequency.
    """


class UnitError(RATError, ValueError):
    """A quantity was supplied in an unrecognised or non-convertible unit."""


class PrecisionError(RATError, ValueError):
    """A numerical-precision analysis failed.

    Examples: an unrepresentable fixed-point format (zero total width,
    fractional bits exceeding word length) or an error-tolerance search
    with an empty feasible set.
    """


class ResourceError(RATError, ValueError):
    """A resource estimate cannot be formed or exceeds hard device limits."""


class PlatformError(RATError, KeyError):
    """An unknown FPGA device, interconnect, or platform was requested."""


class SimulationError(RATError, RuntimeError):
    """The cycle-level hardware simulator reached an inconsistent state."""


class ExplorationError(RATError, RuntimeError):
    """A design-space exploration run could not complete cleanly.

    Raised by ``map_designs`` when a chunk's evaluator raises under
    ``on_error="fail"`` or a pool worker dies (under every policy), and
    when a checkpoint cannot be resumed.  Carries the structured failure
    records and whatever partial results were computed so callers can
    salvage a long run:

    ``chunk_failures``
        Chunk-level diagnostics (``ChunkFailure`` instances) for chunks
        whose evaluator raised.
    ``partial``
        The partial result (for ``map_designs``, a ``MapResult`` of the
        chunks completed so far), or ``None``.
    """

    def __init__(
        self,
        message: str,
        *,
        chunk_failures: tuple = (),
        partial: object = None,
    ) -> None:
        super().__init__(message)
        self.chunk_failures = tuple(chunk_failures)
        self.partial = partial

    def __reduce__(self):
        # Exceptions pickle as ``cls(*args)`` plus ``__dict__`` state by
        # default, which silently drops keyword-only payloads on classes
        # that evolve their constructor.  These errors can cross process
        # boundaries (a run inside a pool worker), so reconstruct
        # explicitly.
        return (
            _rebuild_exploration_error,
            (
                type(self),
                self.args[0] if self.args else "",
                self.chunk_failures,
                self.partial,
            ),
        )


def _rebuild_exploration_error(
    cls: type, message: str, chunk_failures: tuple, partial: object,
) -> "ExplorationError":
    """Unpickle helper for :class:`ExplorationError` (and subclasses)."""
    return cls(message, chunk_failures=chunk_failures, partial=partial)


class GoalSeekError(RATError, ValueError):
    """A goal-seek (inverse throughput) problem is infeasible.

    For instance, asking for a speedup that communication time alone
    already precludes: no finite ``throughput_proc`` can achieve it.
    """


class ExperimentError(RATError, RuntimeError):
    """An experiment-registry lookup or reproduction run failed."""


class ObservabilityError(RATError, RuntimeError):
    """The tracing/metrics layer was misused.

    Examples: closing a span that is not the innermost open span, or
    re-registering a metric name under a different instrument type.
    """


class ServeError(RATError, RuntimeError):
    """The prediction service cannot process a request.

    Base class for serving-layer failures; raised directly when the
    service is shutting down (mapped to HTTP 503 by the HTTP layer).
    """


class AdmissionError(ServeError):
    """The service's admission queue is full (HTTP 429).

    ``retry_after_s`` is the server's estimate of when capacity should
    be available again, surfaced as the ``Retry-After`` response header.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)

    def __reduce__(self):
        return (type(self), (self.args[0], self.retry_after_s))


class DeadlineError(ServeError):
    """A request's deadline expired before it could be served (HTTP 504)."""


class LimitError(ServeError):
    """A request exceeds a configured size limit (HTTP 413).

    Examples: a ``/v1/batch`` body with more rows than ``max_batch_rows``
    or a ``/v1/explore`` sweep spanning more than ``max_explore_points``.
    """
