"""Run manifests and the perf-regression ratchet."""

import json

import pytest

from repro.obs.manifest import (
    SCHEMA,
    RatchetMetric,
    build_manifest,
    compare,
    fingerprint,
    flatten_metrics,
    load_manifest,
    load_trajectory,
    manifest_from_bench_record,
    render_history,
    write_manifest,
)
from repro.obs.metrics import MetricsRegistry


def make_manifest(metrics, label="m", fp=None):
    manifest = build_manifest(metrics, label=label)
    if fp is not None:
        manifest["fingerprint"] = fp
    return manifest


class TestFlatten:
    def test_plain_numbers_pass_through(self):
        assert flatten_metrics({"a": 1, "b": 2.5}) == {"a": 1.0, "b": 2.5}

    def test_registry_shapes(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.gauge("ratio").set(6.5)
        registry.histogram("wall_s").observe(1.0)
        flat = flatten_metrics(registry.as_dict())
        assert flat["hits"] == 3.0
        assert flat["ratio"] == 6.5
        assert flat["wall_s.count"] == 1.0
        assert flat["wall_s.p99"] == 1.0

    def test_junk_entries_dropped(self):
        assert flatten_metrics({"x": "text", "y": None}) == {}


class TestManifestIO:
    def test_build_shape(self):
        manifest = build_manifest({"m": 1.0}, label="run")
        assert manifest["schema"] == SCHEMA
        assert manifest["label"] == "run"
        assert manifest["metrics"] == {"m": 1.0}
        assert manifest["fingerprint"] == fingerprint()
        assert manifest["created_unix"] > 0

    def test_write_load_round_trip(self, tmp_path):
        manifest = build_manifest({"m": 2.0}, label="roundtrip")
        path = write_manifest(manifest, tmp_path / "results")
        assert path.name == "roundtrip.json"
        assert load_manifest(path) == manifest

    def test_bench_record_adapts(self, tmp_path):
        record = {
            "schema": "rat-bench-record/v1",
            "python": "3.11.0",
            "platform": "Linux-x",
            "metrics": {"serve.rps_ratio": {"type": "gauge", "value": 6.0}},
        }
        path = tmp_path / "BENCH_PR3.json"
        path.write_text(json.dumps(record))
        manifest = load_manifest(path)
        assert manifest["schema"] == SCHEMA
        assert manifest["label"] == "BENCH_PR3"
        assert manifest["metrics"]["serve.rps_ratio"] == 6.0
        assert manifest["fingerprint"] == "Linux-x/python3.11.0"

    def test_trajectory_ordered_by_pr_number(self, tmp_path):
        for n in (10, 2, 1):
            (tmp_path / f"BENCH_PR{n}.json").write_text(
                json.dumps({"metrics": {}})
            )
        (tmp_path / "BENCH_PRx.json").write_text("{}")  # not a record
        numbers = [n for n, _, _ in load_trajectory(tmp_path)]
        assert numbers == [1, 2, 10]

    def test_real_committed_trajectory_loads(self):
        trajectory = load_trajectory(".")
        assert trajectory, "repo should carry BENCH_PR*.json records"
        for _, _, manifest in trajectory:
            assert manifest["schema"] == SCHEMA


class TestRatchetMetric:
    def test_validates_direction_and_kind(self):
        with pytest.raises(ValueError):
            RatchetMetric("x", direction="sideways")
        with pytest.raises(ValueError):
            RatchetMetric("x", kind="vibes")

    def test_validates_tolerance_range(self):
        with pytest.raises(ValueError):
            RatchetMetric("x", tolerance=0.0)
        with pytest.raises(ValueError):
            RatchetMetric("x", tolerance=1.0)
        assert RatchetMetric("x", tolerance=0.55).tolerance == 0.55


GUARD = (
    RatchetMetric("speedup", "higher", "ratio"),
    RatchetMetric("p99_us", "lower", "absolute"),
)


class TestCompare:
    def test_ok_within_threshold(self):
        base = make_manifest({"speedup": 10.0, "p99_us": 100.0})
        cur = make_manifest({"speedup": 9.5, "p99_us": 105.0})
        report = compare(cur, base, metrics=GUARD, threshold=0.15)
        assert not report.failed
        assert [row["status"] for row in report.rows] == ["ok", "ok"]

    def test_ratio_regression_trips(self):
        base = make_manifest({"speedup": 10.0})
        cur = make_manifest({"speedup": 8.0})  # -20%
        report = compare(cur, base, metrics=GUARD[:1], threshold=0.15)
        assert report.failed
        [row] = report.regressions
        assert row["metric"] == "speedup"
        assert row["change"] == pytest.approx(-0.2)

    def test_lower_is_better_direction(self):
        base = make_manifest({"p99_us": 100.0})
        worse = make_manifest({"p99_us": 130.0})
        report = compare(worse, base, metrics=GUARD[1:], threshold=0.15)
        assert report.failed
        better = make_manifest({"p99_us": 70.0})
        assert not compare(better, base, metrics=GUARD[1:]).failed

    def test_absolute_skipped_across_machines(self):
        base = make_manifest({"p99_us": 100.0}, fp="machine-a")
        cur = make_manifest({"p99_us": 900.0}, fp="machine-b")
        report = compare(cur, base, metrics=GUARD[1:])
        [row] = report.rows
        assert row["status"] == "skipped"
        assert not report.failed

    def test_missing_metric_reported_not_failed(self):
        base = make_manifest({})
        cur = make_manifest({"speedup": 10.0})
        report = compare(cur, base, metrics=GUARD[:1])
        [row] = report.rows
        assert row["status"] == "missing"
        assert not report.failed

    def test_inject_forces_adversarial_regression(self):
        manifest = make_manifest({"speedup": 10.0, "p99_us": 100.0})
        report = compare(
            manifest, manifest, metrics=GUARD, threshold=0.15, inject=0.2
        )
        # Both directions must be pushed the *bad* way.
        assert len(report.regressions) == 2

    def test_inject_below_threshold_passes(self):
        manifest = make_manifest({"speedup": 10.0})
        report = compare(
            manifest, manifest, metrics=GUARD[:1], threshold=0.15, inject=0.1
        )
        assert not report.failed

    def test_render_mentions_verdict(self):
        base = make_manifest({"speedup": 10.0})
        ok = compare(base, base, metrics=GUARD[:1])
        assert "OK: no regressions" in ok.render()
        bad = compare(base, base, metrics=GUARD[:1], inject=0.5)
        assert "FAIL: 1 regression(s)" in bad.render()

    def test_per_metric_tolerance_overrides_threshold(self):
        # A multi-modal metric (e.g. the plan speedup ratio) carries a
        # wide tolerance: a -50% swing stays ok, but a regression past
        # its own tolerance still trips even at a loose global threshold.
        wide = (RatchetMetric("bimodal", "higher", "ratio", tolerance=0.55),)
        base = make_manifest({"bimodal": 2.7})
        swing = make_manifest({"bimodal": 1.35})  # -50%: within tolerance
        report = compare(swing, base, metrics=wide, threshold=0.15)
        assert not report.failed
        [row] = report.rows
        assert row["threshold"] == 0.55
        assert "tolerance 55%" in report.render()
        parity = make_manifest({"bimodal": 1.0})  # -63%: a real regression
        assert compare(parity, base, metrics=wide, threshold=0.15).failed

    def test_default_guard_against_committed_trajectory(self):
        # The shipped RATCHET_METRICS must compare cleanly when a record
        # is diffed against itself (the degenerate no-change case).
        _, _, latest = load_trajectory(".")[-1]
        assert not compare(latest, latest).failed


class TestRenderHistory:
    def _record(self, tmp_path, pr, metrics):
        (tmp_path / f"BENCH_PR{pr}.json").write_text(json.dumps({
            "schema": "rat-bench-record/v1",
            "python": "3.11.0",
            "platform": "Linux-x",
            "metrics": {
                name: {"type": "gauge", "value": value}
                for name, value in metrics.items()
            },
        }))

    def test_renders_one_column_per_record(self, tmp_path):
        self._record(tmp_path, 1, {"serve.rps_ratio": 4.0})
        self._record(tmp_path, 2, {"serve.rps_ratio": 6.0})
        table = render_history(tmp_path)
        assert "PR1" in table and "PR2" in table
        assert "serve.rps_ratio" in table
        assert "+50.0%" in table  # 4.0 -> 6.0 in the good direction

    def test_missing_metric_shows_dash_and_new(self, tmp_path):
        self._record(tmp_path, 1, {})
        self._record(tmp_path, 2, {"serve.shard_scaling_2x": 1.5})
        lines = render_history(tmp_path).splitlines()
        (scaling_row,) = [
            line for line in lines
            if line.startswith("serve.shard_scaling_2x")
        ]
        assert "-" in scaling_row
        assert scaling_row.rstrip().endswith("new")

    def test_lower_is_better_trend_sign(self, tmp_path):
        self._record(tmp_path, 1, {"serve.http_c64_p99_us": 10000.0})
        self._record(tmp_path, 2, {"serve.http_c64_p99_us": 8000.0})
        lines = render_history(tmp_path).splitlines()
        (p99_row,) = [
            line for line in lines
            if line.startswith("serve.http_c64_p99_us")
        ]
        assert "+20.0%" in p99_row  # latency dropped = improvement

    def test_empty_directory(self, tmp_path):
        assert "no BENCH_PR*.json records" in render_history(tmp_path)

    def test_custom_metric_set(self, tmp_path):
        self._record(tmp_path, 1, {"custom.metric": 1.0})
        table = render_history(
            tmp_path, metrics=[RatchetMetric("custom.metric")]
        )
        assert "custom.metric" in table
        assert "serve.rps_ratio" not in table

    def test_real_committed_trajectory_renders(self):
        table = render_history(".")
        assert "perf trajectory" in table
        assert "bench.batch_predict.1000000.speedup_ratio" in table
