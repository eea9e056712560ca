"""Experiment registry: every paper table and figure, runnable by id.

Each :class:`Experiment` reproduces one artefact of the paper's
evaluation and returns an :class:`ExperimentResult` holding rendered text
plus structured :class:`~repro.analysis.compare.ComparisonReport` objects
against the paper's reported numbers.  The benchmark harness
(``benchmarks/``) and ``EXPERIMENTS.md`` are both generated from this
registry, so there is exactly one source of truth per experiment.

Tolerances: predicted columns compare at 2% (same closed-form equations,
same inputs — residual error is the paper's printed rounding); actual
columns compare at 15% (our simulator vs the authors' hardware) except
where the paper value itself is a prose reconstruction, which gets 60%
(see DESIGN.md's garbled-source caveats).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..apps.registry import get_case_study
from ..obs import get_metrics, get_tracer
from ..core.buffering import (
    BufferingMode,
    double_buffered_timeline,
    single_buffered_timeline,
)
from ..core.goalseek import required_throughput_proc
from ..core.methodology import DesignCandidate, Requirements, Verdict, evaluate_design
from ..core.params import WORKSHEET_FIELDS
from ..core.throughput import predict
from ..errors import ExperimentError
from ..platforms.device import ResourceKind
from ..units import MHZ
from .compare import ComparisonReport, compare_prediction

__all__ = [
    "Experiment",
    "ExperimentResult",
    "get_experiment",
    "list_experiments",
    "run_experiment",
    "run_all_experiments",
]

PREDICTED_TOL = 0.02
ACTUAL_TOL = 0.15
RECONSTRUCTED_TOL = 0.60


@dataclass(frozen=True)
class ExperimentResult:
    """Output of one experiment run."""

    experiment_id: str
    title: str
    text: str
    comparisons: tuple[ComparisonReport, ...] = ()
    data: Mapping[str, object] = field(default_factory=dict)

    @property
    def all_within(self) -> bool:
        """True when every comparison cell met its tolerance."""
        return all(report.all_within for report in self.comparisons)

    def render(self) -> str:
        """Full human-readable report."""
        parts = [f"== {self.experiment_id}: {self.title} ==", self.text]
        for report in self.comparisons:
            parts.append(report.render())
        return "\n\n".join(part for part in parts if part)


@dataclass(frozen=True)
class Experiment:
    """A runnable reproduction of one paper artefact."""

    experiment_id: str
    title: str
    description: str
    runner: Callable[[], ExperimentResult]

    def run(self) -> ExperimentResult:
        """Execute the reproduction.

        Each run records per-experiment observability: a
        ``rat.experiment`` span (id, wall time, in/out-of-tolerance), a
        wall-time gauge and shared histogram, pass/fail counters, and the
        relative error of every compared cell into the
        ``experiment.rel_error`` histogram — the prediction-error
        distribution across the whole reproduction.
        """
        metrics = get_metrics()
        with get_tracer().span(
            "rat.experiment", {"id": self.experiment_id}, "experiment"
        ) as span:
            start = time.perf_counter()
            result = self.runner()
            wall_s = time.perf_counter() - start
            span.set_attribute("all_within", result.all_within)
            span.set_attribute("wall_s", wall_s)
        metrics.gauge(f"experiment.{self.experiment_id}.wall_s").set(wall_s)
        metrics.histogram("experiment.wall_s").observe(wall_s)
        metrics.counter("experiment.runs").inc()
        metrics.counter(
            "experiment.pass" if result.all_within else "experiment.fail"
        ).inc()
        for report in result.comparisons:
            for cell in report.cells:
                if math.isfinite(cell.rel_error):
                    metrics.histogram("experiment.rel_error").observe(
                        cell.rel_error
                    )
        return result


# ---------------------------------------------------------------------------
# Performance tables (3, 6, 9)
# ---------------------------------------------------------------------------

def _performance_experiment(
    study_name: str, experiment_id: str, title: str
) -> ExperimentResult:
    study = get_case_study(study_name)
    if study.paper is None:
        raise ExperimentError(f"{study_name} carries no paper reference")
    table = study.performance_table_with_actual()
    comparisons: list[ComparisonReport] = []

    # Predicted columns: closed-form vs the paper's printed values.
    for clock, reported in study.paper.predicted.items():
        prediction = predict(study.rat.with_clock_hz(clock * MHZ), study.mode)
        comparisons.append(
            compare_prediction(
                f"{title} — predicted @ {clock:g} MHz",
                reported,
                prediction.as_dict(),
                tolerance=PREDICTED_TOL,
                # util cells are printed as whole percents (e.g. "1%" for a
                # true 1.45%), so the paper's own rounding can approach half
                # the printed value.
                tolerances={"util_comm": 0.50, "util_comp": 0.50},
            )
        )

    # Actual column: simulator vs the paper's measurement.
    if study.paper.actual is not None:
        result = study.simulate()
        actual = result.as_actual_column(study.rat.software.t_soft)
        reconstructed = study.paper.reconstructed_fields
        tol = (
            RECONSTRUCTED_TOL
            if any(k in reconstructed for k in study.paper.actual)
            else ACTUAL_TOL
        )
        comparisons.append(
            compare_prediction(
                f"{title} — actual @ {study.paper.actual_clock_mhz:g} MHz "
                "(simulated vs measured)",
                study.paper.actual,
                actual,
                tolerance=tol,
                reconstructed=reconstructed,
            )
        )

    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        text=table.render(),
        comparisons=tuple(comparisons),
        data={"study": study_name},
    )


# ---------------------------------------------------------------------------
# Input tables (1, 2, 5, 8)
# ---------------------------------------------------------------------------

def _input_experiment(
    study_name: str, experiment_id: str, title: str
) -> ExperimentResult:
    study = get_case_study(study_name)
    sheet = study.worksheet().input_table()
    # Round-trip check: serialise and rebuild, values must survive.
    rebuilt = type(study.rat).from_dict(study.rat.to_dict())
    if rebuilt.to_dict() != study.rat.to_dict():
        raise ExperimentError(f"{study_name}: worksheet round-trip mismatch")
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        text=sheet,
        data={"study": study_name, "round_trip": True},
    )


def _table1() -> ExperimentResult:
    """Table 1: the input-parameter schema itself.

    The fields a worksheet serialises to must be the ones the parser
    reads (:data:`~repro.core.params.WORKSHEET_FIELDS`), plus its name.
    """
    study = get_case_study("pdf1d")
    fields = sorted(study.rat.to_dict())
    expected = sorted(["name", *(key for key, _, _, _ in WORKSHEET_FIELDS)])
    if fields != expected:
        raise ExperimentError(f"schema drift: {fields} != {expected}")
    return ExperimentResult(
        experiment_id="table1",
        title="RAT input parameter schema",
        text="Schema fields: " + ", ".join(fields),
        data={"fields": fields},
    )


# ---------------------------------------------------------------------------
# Resource tables (4, 7, 10)
# ---------------------------------------------------------------------------

#: The only clearly legible resource cells in the damaged source, plus the
#: prose-level expectations used as qualitative checks.
_RESOURCE_REFERENCES: dict[str, dict[str, float]] = {
    "pdf1d": {"bram": 0.15},  # Table 4: "BRAMs 15%"
    "pdf2d": {},  # Table 7: only "21%" legible, row attribution uncertain
    "md": {},  # Table 10: percentages illegible; prose says DSPs nearly full
}


def _resource_experiment(
    study_name: str, experiment_id: str, title: str
) -> ExperimentResult:
    study = get_case_study(study_name)
    report = study.resource_report()
    comparisons = []
    reference = _RESOURCE_REFERENCES.get(study_name, {})
    if reference:
        reproduced = {
            kind.value: report.utilization(kind) for kind in ResourceKind
        }
        comparisons.append(
            compare_prediction(
                f"{title} — legible cells",
                reference,
                reproduced,
                tolerance=0.25,
                keys=list(reference),
            )
        )
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        text=report.render(),
        comparisons=tuple(comparisons),
        data={
            "study": study_name,
            "fits": report.fits,
            "limiting": report.limiting_resource.value,
        },
    )


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------

def _fig1() -> ExperimentResult:
    """Figure 1: the methodology flow on the 1-D PDF design.

    The paper's walkthrough proceeds to hardware (verdict PROCEED) for a
    conservative ~5x requirement; an aggressive 50x requirement must
    instead fail the throughput test — both branches are exercised.
    """
    study = get_case_study("pdf1d")
    candidate = DesignCandidate(
        rat=study.rat, kernel_design=study.kernel_design, label="1-D PDF walkthrough"
    )
    pass_result = evaluate_design(
        candidate, Requirements(min_speedup=5.0), study.platform.device
    )
    fail_result = evaluate_design(
        candidate, Requirements(min_speedup=50.0), study.platform.device
    )
    if pass_result.verdict is not Verdict.PROCEED:
        raise ExperimentError(f"expected PROCEED, got {pass_result.verdict}")
    if fail_result.verdict is not Verdict.INSUFFICIENT_THROUGHPUT:
        raise ExperimentError(
            f"expected INSUFFICIENT_THROUGHPUT, got {fail_result.verdict}"
        )
    return ExperimentResult(
        experiment_id="fig1",
        title="RAT methodology flow",
        text=pass_result.describe() + "\n\n" + fail_result.describe(),
        data={
            "pass_verdict": pass_result.verdict.value,
            "fail_verdict": fail_result.verdict.value,
        },
    )


def _fig2() -> ExperimentResult:
    """Figure 2: the three overlap scenarios, drawn and cross-checked."""
    n = 4
    scenarios = {
        "single buffered": single_buffered_timeline(2.0, 3.0, 1.0, n),
        "double buffered, computation bound": double_buffered_timeline(
            2.0, 5.0, 1.0, n
        ),
        "double buffered, communication bound": double_buffered_timeline(
            4.0, 2.0, 2.0, n
        ),
    }
    parts = []
    for label, timeline in scenarios.items():
        parts.append(f"{label} (makespan {timeline.makespan():g}):")
        parts.append(timeline.render_ascii())
    return ExperimentResult(
        experiment_id="fig2",
        title="Communication/computation overlap scenarios",
        text="\n".join(parts),
        data={k: t.makespan() for k, t in scenarios.items()},
    )


def _fig3() -> ExperimentResult:
    """Figure 3: the 1-D PDF architecture description."""
    from ..apps import pdf1d

    design = pdf1d.build_kernel_design()
    kernel = pdf1d.build_hw_kernel()
    lines = [
        f"Batches: {pdf1d.TOTAL_SAMPLES} samples in blocks of "
        f"{pdf1d.BATCH_ELEMENTS} against {pdf1d.N_BINS} bins",
        f"Pipelines: {pdf1d.N_PIPELINES} x {pdf1d.N_BINS // pdf1d.N_PIPELINES} "
        "bins each, one (element, bin) op per cycle",
        kernel.describe(),
        f"Ideal throughput_proc: {design.ideal_throughput_proc():g} ops/cycle "
        "(worksheet derates to 20)",
    ]
    if design.ideal_throughput_proc() != 24:
        raise ExperimentError("Figure-3 architecture should yield 24 ideal ops/cycle")
    return ExperimentResult(
        experiment_id="fig3",
        title="1-D PDF architecture",
        text="\n".join(lines),
        data={"ideal_ops_per_cycle": design.ideal_throughput_proc()},
    )


# ---------------------------------------------------------------------------
# Prose-level experiments
# ---------------------------------------------------------------------------

def _goalseek_md() -> ExperimentResult:
    """Section 5.2: throughput_proc = ~50 for the desired ~10x MD speedup."""
    study = get_case_study("md")
    rat = study.rat.with_clock_hz(100 * MHZ)
    required = required_throughput_proc(rat, target_speedup=10.0)
    comparison = compare_prediction(
        "MD goal-seek (desired 10x at 100 MHz)",
        {"throughput_proc": 50.0},
        {"throughput_proc": required},
        tolerance=0.10,  # paper: "50 is the quantitative value" for "~10x"
    )
    return ExperimentResult(
        experiment_id="goalseek-md",
        title="MD throughput_proc goal-seek",
        text=(
            f"Solving Equations (4)-(7) for throughput_proc at a 10x target "
            f"yields {required:.1f} ops/cycle (paper: 50 for 'approximately 10x')."
        ),
        comparisons=(comparison,),
        data={"required": required},
    )


def _alpha_microbenchmark() -> ExperimentResult:
    """Section 4.2: the alpha measurement procedure at the PDF size."""
    from ..interconnect import measure_alpha, NALLATECH_PCIX_PROFILE
    from ..platforms.catalog import PCIX_133_NALLATECH

    write = measure_alpha(
        PCIX_133_NALLATECH, NALLATECH_PCIX_PROFILE, 2048.0, read=False
    )
    read = measure_alpha(
        PCIX_133_NALLATECH, NALLATECH_PCIX_PROFILE, 2048.0, read=True
    )
    comparison = compare_prediction(
        "Microbenchmark alphas at 2 KB (Nallatech H101)",
        {"alpha_write": 0.37, "alpha_read": 0.16},
        {"alpha_write": write, "alpha_read": read},
        tolerance=0.01,
    )
    return ExperimentResult(
        experiment_id="alpha-microbenchmark",
        title="Interconnect alpha microbenchmark",
        text=(
            f"Simulated microbenchmark at 2048 B: alpha_write={write:.3f}, "
            f"alpha_read={read:.3f} (paper Table 2: 0.37 / 0.16)."
        ),
        comparisons=(comparison,),
        data={"alpha_write": write, "alpha_read": read},
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_EXPERIMENTS: dict[str, Experiment] = {}


def _register(experiment: Experiment) -> None:
    _EXPERIMENTS[experiment.experiment_id] = experiment


_register(Experiment("table1", "RAT input parameter schema",
                     "Table 1: worksheet schema round-trip.", _table1))
_register(Experiment(
    "table2", "1-D PDF input parameters",
    "Table 2: worksheet inputs for the 1-D PDF estimator.",
    lambda: _input_experiment("pdf1d", "table2", "1-D PDF input parameters"),
))
_register(Experiment(
    "table3", "1-D PDF performance",
    "Table 3: predicted (75/100/150 MHz) and actual performance.",
    lambda: _performance_experiment("pdf1d", "table3", "1-D PDF performance"),
))
_register(Experiment(
    "table4", "1-D PDF resources",
    "Table 4: resource usage on the Virtex-4 LX100.",
    lambda: _resource_experiment("pdf1d", "table4", "1-D PDF resources"),
))
_register(Experiment(
    "table5", "2-D PDF input parameters",
    "Table 5: worksheet inputs for the 2-D PDF estimator.",
    lambda: _input_experiment("pdf2d", "table5", "2-D PDF input parameters"),
))
_register(Experiment(
    "table6", "2-D PDF performance",
    "Table 6: predicted and (reconstructed) actual performance.",
    lambda: _performance_experiment("pdf2d", "table6", "2-D PDF performance"),
))
_register(Experiment(
    "table7", "2-D PDF resources",
    "Table 7: resource usage on the Virtex-4 LX100.",
    lambda: _resource_experiment("pdf2d", "table7", "2-D PDF resources"),
))
_register(Experiment(
    "table8", "MD input parameters",
    "Table 8: worksheet inputs for the molecular dynamics kernel.",
    lambda: _input_experiment("md", "table8", "MD input parameters"),
))
_register(Experiment(
    "table9", "MD performance",
    "Table 9: predicted and actual MD performance.",
    lambda: _performance_experiment("md", "table9", "MD performance"),
))
_register(Experiment(
    "table10", "MD resources",
    "Table 10: resource usage on the Stratix-II EP2S180.",
    lambda: _resource_experiment("md", "table10", "MD resources"),
))
_register(Experiment("fig1", "RAT methodology flow",
                     "Figure 1: three-test flow with both verdict branches.",
                     _fig1))
_register(Experiment("fig2", "Overlap scenarios",
                     "Figure 2: SB / DB-comp-bound / DB-comm-bound timelines.",
                     _fig2))
_register(Experiment("fig3", "1-D PDF architecture",
                     "Figure 3: eight-pipeline estimator architecture.", _fig3))
_register(Experiment("goalseek-md", "MD goal-seek",
                     "Section 5.2: solve throughput_proc for the 10x target.",
                     _goalseek_md))
_register(Experiment("alpha-microbenchmark", "Alpha microbenchmark",
                     "Section 4.2: measure alphas over the modelled PCI-X.",
                     _alpha_microbenchmark))


def list_experiments() -> list[str]:
    """All experiment ids in registration (paper) order."""
    return list(_EXPERIMENTS)


def get_experiment(experiment_id: str) -> Experiment:
    """Fetch one experiment by id."""
    try:
        return _EXPERIMENTS[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {list(_EXPERIMENTS)}"
        ) from None


def run_experiment(experiment_id: str) -> ExperimentResult:
    """Run one experiment by id."""
    return get_experiment(experiment_id).run()


def run_all_experiments() -> list[ExperimentResult]:
    """Run the whole registry in order."""
    return [experiment.run() for experiment in _EXPERIMENTS.values()]
