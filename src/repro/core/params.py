"""RAT worksheet input parameters (paper Table 1).

The worksheet groups its inputs into four categories:

======================  =====================================================
Dataset parameters      ``N_elements,input``, ``N_elements,output``,
                        bytes/element
Communication params    ``throughput_ideal`` (MB/s), ``alpha_write``,
                        ``alpha_read``
Computation params      ops/element, ``throughput_proc`` (ops/cycle),
                        ``f_clock`` (MHz)
Software parameters     ``t_soft`` (s), ``N_iter``
======================  =====================================================

All quantities are stored in SI base units (bytes, bytes/s, Hz, seconds);
the constructors accept the worksheet's scaled units through the
``from_worksheet`` helpers.  Validation is strict — the paper's methodology
depends on every parameter being physically meaningful, and a silent
negative element count would poison every downstream equation.

:data:`WORKSHEET_FIELDS` is the one schema of a JSON worksheet:
:func:`worksheet_row` stages a worksheet into its 11 SI values, and
:meth:`RATInput.from_si` / :meth:`RATInput.si_values` convert between
those values and a validated :class:`RATInput`.  The scalar constructor
:meth:`RATInput.from_dict`, the batch engine, the prediction service
and the uncertainty analysis all read worksheets through them, so every
path stages the same bits and reports the same errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

from ..errors import ParameterError
from ..units import MB, MHZ

__all__ = [
    "DatasetParams",
    "CommunicationParams",
    "ComputationParams",
    "SoftwareParams",
    "RATInput",
    "WORKSHEET_FIELDS",
    "worksheet_row",
    "positive_violation",
    "nonnegative_violation",
    "fraction_violation",
    "at_least_one_violation",
]


# ---------------------------------------------------------------------------
# Violation messages, shared between the scalar validators below and the
# vectorized row-level quarantine in ``repro.core.batch``.  Keeping one
# formatter per rule guarantees the batch path reports byte-identical
# diagnostics for every input the scalar path rejects.
# ---------------------------------------------------------------------------


def positive_violation(name: str, value: float) -> str | None:
    """The violation message for a must-be-positive field, or None if ok."""
    if not math.isfinite(value) or not value > 0:
        return f"{name} must be positive and finite, got {value}"
    return None


def nonnegative_violation(name: str, value: float) -> str | None:
    """The violation message for a must-be->=0 field, or None if ok."""
    if not math.isfinite(value) or value < 0:
        return f"{name} must be >= 0 and finite, got {value}"
    return None


def fraction_violation(name: str, value: float) -> str | None:
    """The violation message for a (0, 1] fraction field, or None if ok."""
    if not math.isfinite(value) or not 0 < value <= 1:
        return f"{name} must be in (0, 1], got {value}"
    return None


def at_least_one_violation(name: str, value: float) -> str | None:
    """The violation message for a must-be->=1 field, or None if ok."""
    if not math.isfinite(value) or value < 1:
        return f"{name} must be >= 1, got {value}"
    return None


def _require_positive(name: str, value: float) -> None:
    message = positive_violation(name, value)
    if message is not None:
        raise ParameterError(message)


def _require_nonnegative(name: str, value: float) -> None:
    message = nonnegative_violation(name, value)
    if message is not None:
        raise ParameterError(message)


def _require_fraction(name: str, value: float) -> None:
    message = fraction_violation(name, value)
    if message is not None:
        raise ParameterError(message)


#: The Table-1 worksheet fields, in :class:`~repro.core.batch.BatchInput`
#: column order: (JSON key, SI batch column, display-to-SI scale, whether
#: the field is a count).  :func:`worksheet_row` stages a count through
#: ``int()``, truncation included, and multiplies by the scale.
WORKSHEET_FIELDS: tuple[tuple[str, str, float, bool], ...] = (
    ("elements_in", "elements_in", 1.0, True),
    ("elements_out", "elements_out", 1.0, True),
    ("bytes_per_element", "bytes_per_element", 1.0, False),
    ("throughput_ideal_mbps", "ideal_bandwidth", MB, False),
    ("alpha_write", "alpha_write", 1.0, False),
    ("alpha_read", "alpha_read", 1.0, False),
    ("ops_per_element", "ops_per_element", 1.0, False),
    ("throughput_proc", "throughput_proc", 1.0, False),
    ("clock_mhz", "clock_hz", MHZ, False),
    ("t_soft", "t_soft", 1.0, False),
    ("n_iterations", "n_iterations", 1.0, True),
)


def worksheet_row(worksheet: Mapping[str, object]) -> tuple[float, ...]:
    """Stage one worksheet dict as its 11 SI floats, unvalidated.

    Applies :data:`WORKSHEET_FIELDS`' conversions — ``int()`` truncation
    for counts, MB/s and MHz scaling — and nothing else, so an
    out-of-range value survives staging: :meth:`RATInput.from_si`
    validates it, or the batch engine quarantines its row.

    The straight-line tuple build runs once per served prediction; only
    a failure walks the table, to name the first missing or non-numeric
    field.
    """
    try:
        return (
            float(int(worksheet["elements_in"])),
            float(int(worksheet["elements_out"])),
            float(worksheet["bytes_per_element"]),
            float(worksheet["throughput_ideal_mbps"]) * MB,
            float(worksheet["alpha_write"]),
            float(worksheet["alpha_read"]),
            float(worksheet["ops_per_element"]),
            float(worksheet["throughput_proc"]),
            float(worksheet["clock_mhz"]) * MHZ,
            float(worksheet["t_soft"]),
            float(int(worksheet["n_iterations"])),
        )
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    if not isinstance(worksheet, Mapping):
        raise ParameterError(
            "worksheet must be a JSON object of Table-1 fields"
        )
    for key, _column, _scale, count in WORKSHEET_FIELDS:
        if key not in worksheet:
            raise ParameterError(f"missing worksheet field {key!r}")
        raw = worksheet[key]
        try:
            float(int(raw)) if count else float(raw)
        except (TypeError, ValueError, OverflowError):
            raise ParameterError(
                f"non-numeric worksheet field {key!r}: {raw!r}"
            ) from None
    raise ParameterError("worksheet could not be staged")  # unreachable


def _count(value: float) -> int | float:
    """A count as :meth:`RATInput.from_si` stores it: whole -> ``int``."""
    return int(value) if value.is_integer() else value


@dataclass(frozen=True)
class DatasetParams:
    """Problem-size parameters of one buffered block.

    ``elements_in`` is the number of elements transferred host→FPGA per
    iteration; ``elements_out`` the number returned FPGA→host.  The
    "element" is the paper's common unit tying communication volume to
    computation volume — e.g. one data sample for PDF estimation, one
    molecule for MD.  ``bytes_per_element`` is fixed by the chosen
    numerical precision *as communicated* (the 1-D PDF computes in 18-bit
    fixed point but communicates 32-bit words, so it is 4 here).
    """

    elements_in: int
    elements_out: int
    bytes_per_element: float

    def __post_init__(self) -> None:
        _require_positive("elements_in", self.elements_in)
        _require_nonnegative("elements_out", self.elements_out)
        _require_positive("bytes_per_element", self.bytes_per_element)

    @property
    def bytes_in(self) -> float:
        """Input transfer size per iteration, in bytes."""
        return self.elements_in * self.bytes_per_element

    @property
    def bytes_out(self) -> float:
        """Output transfer size per iteration, in bytes."""
        return self.elements_out * self.bytes_per_element


@dataclass(frozen=True)
class CommunicationParams:
    """Interconnect parameters: Equations (2)-(3) denominators.

    ``ideal_bandwidth`` is the documented theoretical maximum in bytes/s;
    ``alpha_write`` / ``alpha_read`` are the microbenchmark-measured
    sustained fractions for host→FPGA and FPGA→host transfers.
    """

    ideal_bandwidth: float
    alpha_write: float
    alpha_read: float

    def __post_init__(self) -> None:
        _require_positive("ideal_bandwidth", self.ideal_bandwidth)
        _require_fraction("alpha_write", self.alpha_write)
        _require_fraction("alpha_read", self.alpha_read)

    @classmethod
    def from_worksheet(
        cls, ideal_mbps: float, alpha_write: float, alpha_read: float
    ) -> "CommunicationParams":
        """Construct from the worksheet's MB/s convention."""
        return cls(
            ideal_bandwidth=ideal_mbps * MB,
            alpha_write=alpha_write,
            alpha_read=alpha_read,
        )

    @property
    def write_bandwidth(self) -> float:
        """Sustained host→FPGA bandwidth, bytes/s."""
        return self.alpha_write * self.ideal_bandwidth

    @property
    def read_bandwidth(self) -> float:
        """Sustained FPGA→host bandwidth, bytes/s."""
        return self.alpha_read * self.ideal_bandwidth


@dataclass(frozen=True)
class ComputationParams:
    """Kernel parameters: Equation (4) terms.

    ``ops_per_element`` is manually counted from the algorithm structure;
    ``throughput_proc`` is the expected operations *completed per cycle*
    by the proposed design.  Both must share one definition of
    "operation" — the paper's Booth-multiplier example shows that
    counting a 16-cycle multiply as 1 op at 1/16 op/cycle or as 16 ops at
    1 op/cycle yields identical times, and tests pin that equivalence.
    ``clock_hz`` is the assumed fabric clock.
    """

    ops_per_element: float
    throughput_proc: float
    clock_hz: float

    def __post_init__(self) -> None:
        _require_positive("ops_per_element", self.ops_per_element)
        _require_positive("throughput_proc", self.throughput_proc)
        _require_positive("clock_hz", self.clock_hz)

    @classmethod
    def from_worksheet(
        cls, ops_per_element: float, throughput_proc: float, clock_mhz: float
    ) -> "ComputationParams":
        """Construct from the worksheet's MHz convention."""
        return cls(
            ops_per_element=ops_per_element,
            throughput_proc=throughput_proc,
            clock_hz=clock_mhz * MHZ,
        )

    @property
    def clock_mhz(self) -> float:
        """Clock in MHz for worksheet display."""
        return self.clock_hz / MHZ

    @property
    def ops_per_second(self) -> float:
        """Sustained operation rate: ``f_clock * throughput_proc``."""
        return self.clock_hz * self.throughput_proc

    def with_clock_hz(self, clock_hz: float) -> "ComputationParams":
        """Copy with a different clock (used by worksheet clock sweeps)."""
        return replace(self, clock_hz=clock_hz)


@dataclass(frozen=True)
class SoftwareParams:
    """Baseline and problem-decomposition parameters.

    ``t_soft`` is the measured execution time of the *entire* software
    baseline (all iterations); ``n_iterations`` is how many
    communication+computation blocks the FPGA needs to cover the same
    problem (paper: 204800 samples / 512 per block = 400).
    """

    t_soft: float
    n_iterations: int = 1

    def __post_init__(self) -> None:
        _require_positive("t_soft", self.t_soft)
        message = at_least_one_violation("n_iterations", self.n_iterations)
        if message is not None:
            raise ParameterError(message)


@dataclass(frozen=True)
class RATInput:
    """The complete RAT worksheet input (paper Table 1).

    Bundles the four parameter groups plus an optional name for reports.
    Immutable; what-if edits go through the ``with_*`` helpers so each
    candidate design is a distinct value (the methodology of Figure 1
    iterates over such candidates).
    """

    dataset: DatasetParams
    communication: CommunicationParams
    computation: ComputationParams
    software: SoftwareParams
    name: str = ""

    # ---- derived convenience properties -----------------------------------

    @property
    def total_elements(self) -> float:
        """Total input elements across all iterations."""
        return self.dataset.elements_in * self.software.n_iterations

    @property
    def total_ops(self) -> float:
        """Total operations across all iterations."""
        return self.total_elements * self.computation.ops_per_element

    # ---- what-if edit helpers ---------------------------------------------

    def with_clock_hz(self, clock_hz: float) -> "RATInput":
        """Copy with a different assumed fabric clock."""
        return replace(self, computation=self.computation.with_clock_hz(clock_hz))

    def with_throughput_proc(self, throughput_proc: float) -> "RATInput":
        """Copy with a different ops/cycle estimate."""
        return replace(
            self, computation=replace(self.computation, throughput_proc=throughput_proc)
        )

    def with_alphas(self, alpha_write: float, alpha_read: float) -> "RATInput":
        """Copy with different sustained-bandwidth fractions."""
        return replace(
            self,
            communication=replace(
                self.communication, alpha_write=alpha_write, alpha_read=alpha_read
            ),
        )

    def with_block_size(self, elements_in: int, n_iterations: int) -> "RATInput":
        """Copy with a different problem decomposition.

        The caller is responsible for keeping ``elements_in * n_iterations``
        equal to the total problem size; a mismatch is legal (padding the
        final block) but changes the modelled workload.
        """
        return replace(
            self,
            dataset=replace(self.dataset, elements_in=elements_in),
            software=replace(self.software, n_iterations=n_iterations),
        )

    def with_name(self, name: str) -> "RATInput":
        """Copy under a different report name."""
        return replace(self, name=name)

    # ---- serialization ------------------------------------------------------

    def si_values(self) -> tuple[float, ...]:
        """The 11 values in SI units, in :data:`WORKSHEET_FIELDS` order."""
        d, c, k = self.dataset, self.communication, self.computation
        s = self.software
        return tuple(map(float, (
            d.elements_in, d.elements_out, d.bytes_per_element,
            c.ideal_bandwidth, c.alpha_write, c.alpha_read,
            k.ops_per_element, k.throughput_proc, k.clock_hz,
            s.t_soft, s.n_iterations,
        )))

    @classmethod
    def from_si(cls, values: Sequence[float], name: str = "") -> "RATInput":
        """Build and validate a worksheet from its 11 SI values.

        ``values`` are in :data:`WORKSHEET_FIELDS` order, as
        :func:`worksheet_row` stages them and :meth:`si_values` returns
        them.  A count that is a whole number becomes an ``int``; any
        other stays the float it was, so the worksheet predicts exactly
        the values it was given.
        """
        (e_in, e_out, bytes_per_element, bandwidth, alpha_write, alpha_read,
         ops, throughput_proc, clock_hz, t_soft, n_iter) = map(float, values)
        return cls(
            DatasetParams(_count(e_in), _count(e_out), bytes_per_element),
            CommunicationParams(bandwidth, alpha_write, alpha_read),
            ComputationParams(ops, throughput_proc, clock_hz),
            SoftwareParams(t_soft, _count(n_iter)),
            name,
        )

    def to_dict(self) -> dict[str, Any]:
        """Flatten to the worksheet's unit conventions (MB/s, MHz)."""
        return {
            "name": self.name,
            "elements_in": self.dataset.elements_in,
            "elements_out": self.dataset.elements_out,
            "bytes_per_element": self.dataset.bytes_per_element,
            "throughput_ideal_mbps": self.communication.ideal_bandwidth / MB,
            "alpha_write": self.communication.alpha_write,
            "alpha_read": self.communication.alpha_read,
            "ops_per_element": self.computation.ops_per_element,
            "throughput_proc": self.computation.throughput_proc,
            "clock_mhz": self.computation.clock_mhz,
            "t_soft": self.software.t_soft,
            "n_iterations": self.software.n_iterations,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RATInput":
        """Inverse of :meth:`to_dict`: stage, then validate.

        The worksheet is staged by :func:`worksheet_row`, the function
        the prediction service stages requests with, and built by
        :meth:`from_si`.  Every fault is a :class:`ParameterError`: a
        missing or non-numeric field (``None`` included) is named
        first, ahead of any out-of-range value, and the text is the one
        ``/v1/predict`` and ``/v1/batch`` answer for that worksheet.
        Counts pass through float staging, so one above ``2**53`` is
        rounded to the nearest float.
        """
        return cls.from_si(worksheet_row(data), str(data.get("name", "")))
