"""Run manifests and the perf-regression ratchet.

Every benchmark or load-test session distils into a *run manifest*: one
JSON document (schema ``rat-run-manifest/v1``) recording what ran
(label, git SHA, config, seeds), where (python / platform fingerprint),
and what it measured (a flat ``metric name -> float`` map).  Manifests
are the durable interchange between a perf run and any later judgement
about it — CI artefacts, the committed ``BENCH_PR*.json`` trajectory,
and ``rat bench report`` all speak this shape.

The **ratchet** is that judgement: :func:`compare` diffs a current
manifest against a baseline over a declared set of
:class:`RatchetMetric` entries and flags any metric that moved more than
``threshold`` in its *bad* direction (a metric may carry its own
``tolerance`` when its honest value is multi-modal).  Two kinds of
metric exist because CI machines are not lab machines:

``ratio``
    Dimensionless (speedup ratios, batched-vs-unbatched RPS ratio).
    Machine-independent, so always compared.
``absolute``
    Wall-clock-derived (RPS, p99 latency).  Compared only when the two
    manifests carry the same platform fingerprint; otherwise reported as
    skipped rather than producing noise-driven failures.

``inject`` applies an adversarial factor to the current values before
comparison — the CI demo compares a manifest against *itself* with
``inject=0.2`` to prove the gate actually trips.
"""

from __future__ import annotations

import json
import pathlib
import platform
import re
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

__all__ = [
    "RATCHET_METRICS",
    "RatchetMetric",
    "RatchetReport",
    "build_manifest",
    "compare",
    "fingerprint",
    "flatten_metrics",
    "git_sha",
    "load_manifest",
    "load_trajectory",
    "manifest_from_bench_record",
    "render_history",
    "write_manifest",
]

SCHEMA = "rat-run-manifest/v1"

_BENCH_RECORD = re.compile(r"BENCH_PR(\d+)\.json$")


def git_sha(root: str | pathlib.Path | None = None) -> str:
    """The repository HEAD SHA, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(root) if root else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def fingerprint() -> str:
    """Machine identity for absolute-metric comparability."""
    return (
        f"{platform.system()}/{platform.machine()}"
        f"/python{platform.python_version()}"
    )


def flatten_metrics(metrics: Mapping[str, Any]) -> dict[str, float]:
    """Flatten a ``MetricsRegistry.as_dict()`` map to ``name -> float``.

    Counters and gauges contribute their value under their own name;
    histograms expand to ``name.count/.sum/.mean/.p50/.p90/.p99``.
    Already-flat ``name -> number`` maps pass through unchanged.
    """
    flat: dict[str, float] = {}
    for name, entry in metrics.items():
        if isinstance(entry, (int, float)):
            flat[name] = float(entry)
            continue
        if not isinstance(entry, Mapping):
            continue
        if "value" in entry:
            flat[name] = float(entry["value"])  # counter / gauge
            continue
        for stat in ("count", "sum", "mean", "p50", "p90", "p99"):
            if stat in entry and isinstance(entry[stat], (int, float)):
                flat[f"{name}.{stat}"] = float(entry[stat])
    return flat


def build_manifest(
    metrics: Mapping[str, Any],
    *,
    label: str,
    config: Mapping[str, Any] | None = None,
    seeds: Mapping[str, int] | None = None,
    root: str | pathlib.Path | None = None,
) -> dict[str, Any]:
    """Assemble a ``rat-run-manifest/v1`` document (not yet written)."""
    return {
        "schema": SCHEMA,
        "label": label,
        "created_unix": time.time(),
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "fingerprint": fingerprint(),
        "config": dict(config or {}),
        "seeds": dict(seeds or {}),
        "metrics": flatten_metrics(metrics),
    }


def write_manifest(
    manifest: Mapping[str, Any], directory: str | pathlib.Path
) -> pathlib.Path:
    """Write ``<directory>/<label>.json`` (latest run wins), return it."""
    out_dir = pathlib.Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{manifest['label']}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_manifest(path: str | pathlib.Path) -> dict[str, Any]:
    """Load a manifest; bench-record files are converted on the fly."""
    record = json.loads(pathlib.Path(path).read_text())
    if record.get("schema") == SCHEMA:
        return record
    return manifest_from_bench_record(record, label=pathlib.Path(path).stem)


def manifest_from_bench_record(
    record: Mapping[str, Any], *, label: str = ""
) -> dict[str, Any]:
    """View a committed ``rat-bench-record/v1`` file as a manifest.

    Bench records predate manifests; adapting them (rather than
    rewriting history) keeps the whole committed trajectory usable as
    ratchet baselines.
    """
    merged: dict[str, Any] = {}
    merged.update(record.get("library_metrics", {}))
    merged.update(record.get("metrics", {}))  # session metrics win
    python = str(record.get("python", ""))
    return {
        "schema": SCHEMA,
        "label": label or str(record.get("record", "bench-record")),
        "created_unix": 0.0,
        "git_sha": "unknown",
        "python": python,
        "platform": str(record.get("platform", "")),
        # Committed records carry platform.platform() rather than the
        # manifest fingerprint; a synthetic one keeps the same-machine
        # test meaningful (full platform string + python version).
        "fingerprint": f"{record.get('platform', '')}/python{python}",
        "config": {},
        "seeds": {},
        "metrics": flatten_metrics(record.get("metrics", merged)),
    }


def load_trajectory(
    root: str | pathlib.Path,
) -> list[tuple[int, pathlib.Path, dict[str, Any]]]:
    """All committed ``BENCH_PR<n>.json`` records, ordered by PR number."""
    out: list[tuple[int, pathlib.Path, dict[str, Any]]] = []
    for path in pathlib.Path(root).glob("BENCH_PR*.json"):
        match = _BENCH_RECORD.search(path.name)
        if not match:
            continue
        out.append((int(match.group(1)), path, load_manifest(path)))
    out.sort(key=lambda item: item[0])
    return out


def render_history(
    root: str | pathlib.Path,
    *,
    metrics: Iterable["RatchetMetric"] | None = None,
) -> str:
    """The committed ``BENCH_PR*.json`` trajectory as a per-metric table.

    One row per guarded metric (default: :data:`RATCHET_METRICS`), one
    column per committed record, so the whole perf trend is inspectable
    at a glance from ``rat bench report --history``.  Records that
    predate a metric show ``-``; the trailing column annotates the net
    change from the first record that carries the metric to the latest.
    """
    trajectory = load_trajectory(root)
    if not trajectory:
        return f"no BENCH_PR*.json records under {pathlib.Path(root)}"
    guarded = tuple(metrics if metrics is not None else RATCHET_METRICS)
    headers = [f"PR{pr}" for pr, _, _ in trajectory]
    name_width = max(len(m.name) for m in guarded)
    col_width = max(9, *(len(h) for h in headers))
    lines = [
        f"perf trajectory: {len(trajectory)} record(s) under "
        f"{pathlib.Path(root)}",
        "  ".join(
            [f"{'metric':<{name_width}}"]
            + [f"{h:>{col_width}}" for h in headers]
            + ["trend"]
        ),
    ]
    for metric in guarded:
        values = [
            manifest.get("metrics", {}).get(metric.name)
            for _, _, manifest in trajectory
        ]
        cells = [
            f"{v:>{col_width}.4g}" if v is not None else f"{'-':>{col_width}}"
            for v in values
        ]
        present = [v for v in values if v is not None]
        if len(present) >= 2 and present[0] != 0:
            change = (present[-1] - present[0]) / abs(present[0])
            if metric.direction == "lower":
                change = -change
            trend = f"{change:+.1%}"
        elif present:
            trend = "new"
        else:
            trend = "absent"
        lines.append(
            "  ".join([f"{metric.name:<{name_width}}"] + cells + [trend])
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# The ratchet
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RatchetMetric:
    """One guarded metric: where it lives and which way is worse.

    ``tolerance`` overrides the comparison-wide threshold for metrics
    whose honest value is multi-modal (e.g. ratios that swing run to run
    or with the machine's core count): wide enough to span the modes,
    tight enough that a real regression still trips.
    """

    name: str
    direction: str = "higher"  # "higher" or "lower" is better
    kind: str = "ratio"  # "ratio" (portable) or "absolute" (machine-bound)
    tolerance: float | None = None  # per-metric threshold override

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower"):
            raise ValueError(f"bad direction {self.direction!r}")
        if self.kind not in ("ratio", "absolute"):
            raise ValueError(f"bad kind {self.kind!r}")
        if self.tolerance is not None and not 0.0 < self.tolerance < 1.0:
            raise ValueError(f"bad tolerance {self.tolerance!r}")


#: The default guarded set: portable speedup ratios always, absolute
#: throughput/latency only on a fingerprint-matched machine.  Metrics
#: newer than a baseline report as "missing" there rather than failing,
#: so extending this tuple is always safe.
RATCHET_METRICS: tuple[RatchetMetric, ...] = (
    # Swings 4.2-5.2x run-to-run on a single-core box (and dropped
    # legitimately when compiled plans made batch-size-1 serving
    # faster); the tolerance absorbs that spread, the bench_serve 4x
    # floor still catches a broken batcher.
    RatchetMetric("serve.rps_ratio", "higher", "ratio", tolerance=0.3),
    RatchetMetric("bench.batch_predict.10000.speedup_ratio", "higher", "ratio"),
    RatchetMetric("bench.batch_predict.1000000.speedup_ratio", "higher", "ratio"),
    RatchetMetric("bench.explore.1000000.points_per_sec", "higher", "absolute"),
    RatchetMetric("serve.microbatched_rps", "higher", "absolute"),
    RatchetMetric("serve.http_c64_p99_us", "lower", "absolute"),
    # Cluster scale-out: 2-shard RPS over single-shard RPS.  Honest
    # values are CPU-bound — ~1.0 on a single-core box (the committed
    # baseline), ~1.5-2x on multi-core CI — so the tolerance must span
    # a core-count change of the machine; bench_serve's conditional
    # >=1.5x floor is the real multi-core gate.
    RatchetMetric("serve.shard_scaling_2x", "higher", "ratio", tolerance=0.5),
)


@dataclass
class RatchetReport:
    """Outcome of one manifest-vs-baseline comparison."""

    baseline_label: str
    current_label: str
    threshold: float
    rows: list[dict[str, Any]] = field(default_factory=list)

    @property
    def regressions(self) -> list[dict[str, Any]]:
        return [row for row in self.rows if row["status"] == "regression"]

    @property
    def failed(self) -> bool:
        return bool(self.regressions)

    def render(self) -> str:
        """Human-readable table (one row per guarded metric)."""
        lines = [
            f"ratchet: {self.current_label} vs {self.baseline_label} "
            f"(threshold {self.threshold:.0%})"
        ]
        width = max((len(row["metric"]) for row in self.rows), default=6)
        for row in self.rows:
            if row["status"] in ("missing", "skipped"):
                lines.append(
                    f"  {row['metric']:<{width}}  {row['status']:>10}"
                    f"  ({row['note']})"
                )
                continue
            extra = ""
            if row.get("threshold", self.threshold) != self.threshold:
                extra = f"  (tolerance {row['threshold']:.0%})"
            lines.append(
                f"  {row['metric']:<{width}}  {row['status']:>10}"
                f"  baseline={row['baseline']:.4g}"
                f"  current={row['current']:.4g}"
                f"  change={row['change']:+.1%}{extra}"
            )
        verdict = (
            f"FAIL: {len(self.regressions)} regression(s)"
            if self.failed
            else "OK: no regressions"
        )
        lines.append(verdict)
        return "\n".join(lines)


def compare(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    *,
    metrics: Iterable[RatchetMetric] = RATCHET_METRICS,
    threshold: float = 0.15,
    inject: float = 0.0,
) -> RatchetReport:
    """Diff two manifests over the guarded metrics.

    ``change`` is signed in the *good* direction (positive = improved),
    so a row regresses when ``change < -threshold``.  ``inject`` scales
    each current value adversarially before comparison (0.2 = pretend a
    20% regression) — the CI self-test uses it to prove the gate trips.
    """
    report = RatchetReport(
        baseline_label=str(baseline.get("label", "baseline")),
        current_label=str(current.get("label", "current")),
        threshold=threshold,
    )
    cur_metrics = current.get("metrics", {})
    base_metrics = baseline.get("metrics", {})
    same_machine = bool(current.get("fingerprint")) and current.get(
        "fingerprint"
    ) == baseline.get("fingerprint")
    for metric in metrics:
        row: dict[str, Any] = {
            "metric": metric.name,
            "kind": metric.kind,
            "direction": metric.direction,
        }
        base_v = base_metrics.get(metric.name)
        cur_v = cur_metrics.get(metric.name)
        if base_v is None or cur_v is None:
            side = "baseline" if base_v is None else "current"
            row.update(status="missing", note=f"absent from {side}")
            report.rows.append(row)
            continue
        if metric.kind == "absolute" and not same_machine:
            row.update(
                status="skipped", note="platform fingerprint mismatch"
            )
            report.rows.append(row)
            continue
        if inject:
            cur_v = (
                cur_v * (1.0 - inject)
                if metric.direction == "higher"
                else cur_v * (1.0 + inject)
            )
        if base_v == 0:
            row.update(status="missing", note="zero baseline")
            report.rows.append(row)
            continue
        change = (cur_v - base_v) / abs(base_v)
        if metric.direction == "lower":
            change = -change
        limit = metric.tolerance if metric.tolerance is not None else threshold
        row.update(
            baseline=float(base_v),
            current=float(cur_v),
            change=change,
            threshold=limit,
            status="regression" if change < -limit else "ok",
        )
        report.rows.append(row)
    return report
