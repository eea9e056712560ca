"""Uncertainty propagation through the RAT equations (extension).

Every worksheet input is an estimate — the paper stresses that clocks
are "generally impossible" to know pre-P&R, ``throughput_proc`` is
deliberately conservative, and alphas depend on transfer behaviour the
microbenchmark may not capture.  A single-point prediction hides how
soft those numbers are; this module propagates *ranges* instead.

Two propagation modes:

* **interval** — exact min/max bounds from the equations' monotonicity:
  speedup rises with every throughput-like parameter (alpha, clock,
  throughput_proc) and falls with every volume-like one (elements,
  bytes, ops), so evaluating the two extreme corners brackets the truth
  (no sampling error, but corners may be jointly pessimistic);
* **monte carlo** — independent uniform draws over each range, giving
  percentile bands (what a designer should quote as "expected
  5–10x").

Both run on :class:`UncertainInput`, a worksheet where any parameter may
carry a ``(low, nominal, high)`` triple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..core.batch import BatchInput, batch_predict
from ..core.buffering import BufferingMode
from ..core.params import WORKSHEET_FIELDS, RATInput
from ..core.throughput import predict
from ..errors import ParameterError

__all__ = ["Range", "UncertainInput", "IntervalPrediction", "MonteCarloPrediction"]

#: Worksheet fields that may carry uncertainty, with their direction of
#: influence on speedup (+1: more is faster, -1: more is slower).
_FIELD_DIRECTIONS: dict[str, int] = {
    "alpha_write": +1,
    "alpha_read": +1,
    "throughput_proc": +1,
    "clock_mhz": +1,
    "ops_per_element": -1,
    "bytes_per_element": -1,
}

#: Worksheet field -> (BatchInput column, worksheet-to-SI scale factor),
#: the conversions the scalar path stages with.
_FIELD_COLUMNS: dict[str, tuple[str, float]] = {
    key: (column, scale) for key, column, scale, _ in WORKSHEET_FIELDS
}


@dataclass(frozen=True)
class Range:
    """A ``(low, nominal, high)`` estimate for one parameter."""

    low: float
    nominal: float
    high: float

    def __post_init__(self) -> None:
        if not self.low <= self.nominal <= self.high:
            raise ParameterError(
                f"range must satisfy low <= nominal <= high, got "
                f"({self.low}, {self.nominal}, {self.high})"
            )
        if self.low <= 0:
            raise ParameterError(f"range low must be positive, got {self.low}")

    @classmethod
    def exact(cls, value: float) -> "Range":
        """A degenerate range (no uncertainty)."""
        return cls(low=value, nominal=value, high=value)

    @classmethod
    def pct(cls, nominal: float, minus_pct: float, plus_pct: float) -> "Range":
        """e.g. ``Range.pct(20, 25, 20)`` = 20 ops/cycle, -25%/+20%."""
        if minus_pct < 0 or plus_pct < 0:
            raise ParameterError("percentages must be >= 0")
        return cls(
            low=nominal * (1 - minus_pct / 100),
            nominal=nominal,
            high=nominal * (1 + plus_pct / 100),
        )

    @property
    def width(self) -> float:
        """Absolute span of the range."""
        return self.high - self.low


@dataclass(frozen=True)
class UncertainInput:
    """A worksheet input plus per-parameter uncertainty ranges.

    ``ranges`` maps worksheet field names (a subset of
    ``alpha_write, alpha_read, throughput_proc, clock_mhz,
    ops_per_element, bytes_per_element``) to :class:`Range` objects whose
    nominal value should match the base input (enforced).
    """

    base: RATInput
    ranges: Mapping[str, Range] = field(default_factory=dict)

    def __post_init__(self) -> None:
        nominal_values = self.base.to_dict()
        for name, rng in self.ranges.items():
            if name not in _FIELD_DIRECTIONS:
                raise ParameterError(
                    f"unsupported uncertain field {name!r}; supported: "
                    f"{sorted(_FIELD_DIRECTIONS)}"
                )
            nominal = nominal_values[name]
            if abs(rng.nominal - nominal) > 1e-9 * max(1.0, abs(nominal)):
                raise ParameterError(
                    f"{name}: range nominal {rng.nominal} does not match the "
                    f"worksheet value {nominal}"
                )

    def _apply(self, values: Mapping[str, float]) -> RATInput:
        """Build a concrete worksheet with selected field values."""
        data = self.base.to_dict()
        data.update(values)
        return RATInput.from_dict(data)

    def corner(self, *, optimistic: bool) -> RATInput:
        """The all-favourable or all-unfavourable corner worksheet."""
        values: dict[str, float] = {}
        for name, rng in self.ranges.items():
            favourable_is_high = _FIELD_DIRECTIONS[name] > 0
            take_high = favourable_is_high == optimistic
            values[name] = rng.high if take_high else rng.low
        return self._apply(values)

    def sample(self, rng: np.random.Generator) -> RATInput:
        """One independent-uniform draw over all ranges."""
        values = {
            name: float(rng.uniform(r.low, r.high))
            for name, r in self.ranges.items()
        }
        return self._apply(values)

    def sample_batch(self, rng: np.random.Generator, n: int) -> BatchInput:
        """``n`` independent-uniform draws as one struct-of-arrays batch.

        Columns not under uncertainty keep the base worksheet's SI
        values exactly (no unit round-trip); uncertain columns apply the
        same worksheet-to-SI conversion as the scalar path.
        """
        if n < 1:
            raise ParameterError(f"n must be >= 1, got {n}")
        names = list(self.ranges)
        overrides: dict[str, np.ndarray] = {}
        if names:
            lows = np.array([self.ranges[k].low for k in names])
            highs = np.array([self.ranges[k].high for k in names])
            draws = lows + (highs - lows) * rng.random((n, len(names)))
            for j, name in enumerate(names):
                column, scale = _FIELD_COLUMNS[name]
                overrides[column] = draws[:, j] * scale
        return BatchInput.from_base(self.base, n, overrides)


@dataclass(frozen=True)
class IntervalPrediction:
    """Exact speedup bounds from corner evaluation."""

    low: float
    nominal: float
    high: float

    def describe(self) -> str:
        """e.g. ``"speedup 7.2x (range 5.1x - 10.6x)"``."""
        return (
            f"speedup {self.nominal:.1f}x "
            f"(range {self.low:.1f}x - {self.high:.1f}x)"
        )


def predict_interval(
    uncertain: UncertainInput, mode: BufferingMode = BufferingMode.SINGLE
) -> IntervalPrediction:
    """Bracket the speedup by evaluating the two extreme corners.

    Valid because speedup is monotone in each supported field (all
    appear once, in one direction, in Equations (2)-(7)).
    """
    return IntervalPrediction(
        low=predict(uncertain.corner(optimistic=False), mode).speedup,
        nominal=predict(uncertain.base, mode).speedup,
        high=predict(uncertain.corner(optimistic=True), mode).speedup,
    )


@dataclass(frozen=True)
class MonteCarloPrediction:
    """Sampled speedup distribution."""

    samples: tuple[float, ...]
    nominal: float

    def percentile(self, q: float) -> float:
        """q-th percentile of the sampled speedups (q in [0, 100])."""
        if not 0 <= q <= 100:
            raise ParameterError(f"percentile must be in [0, 100], got {q}")
        return float(np.percentile(self.samples, q))

    @property
    def p5(self) -> float:
        """Pessimistic-but-plausible speedup (5th percentile)."""
        return self.percentile(5)

    @property
    def p95(self) -> float:
        """Optimistic-but-plausible speedup (95th percentile)."""
        return self.percentile(95)

    @property
    def mean(self) -> float:
        """Sample mean."""
        return float(np.mean(self.samples))

    def probability_at_least(self, target: float) -> float:
        """Fraction of samples meeting a target speedup — the risk
        number Figure 1's requirement check should really consume."""
        samples = np.asarray(self.samples)
        return float(np.mean(samples >= target))

    def describe(self) -> str:
        """e.g. ``"speedup 7.1x (90% band 5.9x - 8.9x, n=1000)"``."""
        return (
            f"speedup {self.nominal:.1f}x "
            f"(90% band {self.p5:.1f}x - {self.p95:.1f}x, "
            f"n={len(self.samples)})"
        )


def predict_monte_carlo(
    uncertain: UncertainInput,
    mode: BufferingMode = BufferingMode.SINGLE,
    *,
    n_samples: int = 1000,
    seed: int = 2007,
) -> MonteCarloPrediction:
    """Sample the speedup distribution under independent uniform ranges.

    All draws are generated as arrays and evaluated in one
    :func:`~repro.core.batch.batch_predict` call, so sample counts in
    the tens of thousands cost milliseconds.  Deterministic for a given
    seed (the draws come from one ``(n_samples, n_fields)`` uniform
    matrix).
    """
    if n_samples < 1:
        raise ParameterError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    batch = uncertain.sample_batch(rng, n_samples)
    prediction = batch_predict(batch, mode)
    return MonteCarloPrediction(
        samples=tuple(float(s) for s in prediction.speedup),
        nominal=predict(uncertain.base, mode).speedup,
    )
