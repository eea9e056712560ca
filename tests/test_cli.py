"""CLI tests (argument parsing and end-to-end command output)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestWorksheetCommand:
    def test_from_study(self, capsys):
        assert main(["worksheet", "--study", "pdf1d"]) == 0
        out = capsys.readouterr().out
        assert "Input parameters" in out
        assert "speedup" in out

    def test_from_json(self, tmp_path, capsys, pdf1d_rat):
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(pdf1d_rat.to_dict()))
        assert main(["worksheet", "--json", str(path),
                     "--clocks", "75,150"]) == 0
        out = capsys.readouterr().out
        assert "Predicted 75 MHz" in out
        assert "Predicted 150 MHz" in out

    def test_double_buffered_flag(self, capsys):
        assert main(["worksheet", "--study", "pdf1d",
                     "--double-buffered"]) == 0


class TestStudyCommand:
    def test_full_report(self, capsys):
        assert main(["study", "pdf1d"]) == 0
        out = capsys.readouterr().out
        assert "Actual" in out
        assert "Resource usage" in out
        assert "Nallatech" in out

    def test_unknown_study_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["study", "nonexistent"])


class TestExperimentCommand:
    def test_single(self, capsys):
        assert main(["experiment", "fig3"]) == 0
        assert "1-D PDF architecture" in capsys.readouterr().out

    def test_goalseek_experiment(self, capsys):
        assert main(["experiment", "goalseek-md"]) == 0
        assert "ops/cycle" in capsys.readouterr().out


class TestGoalseekCommand:
    def test_throughput_proc(self, capsys):
        assert main(["goalseek", "--study", "md", "--target", "10"]) == 0
        out = capsys.readouterr().out
        assert "ops/cycle required" in out

    def test_clock(self, capsys):
        assert main(["goalseek", "--study", "pdf1d", "--target", "8",
                     "--variable", "clock"]) == 0
        assert "MHz required" in capsys.readouterr().out

    def test_alpha(self, capsys):
        assert main(["goalseek", "--study", "pdf2d", "--target", "5",
                     "--variable", "alpha"]) == 0
        assert "alpha" in capsys.readouterr().out

    def test_infeasible_returns_error_code(self, capsys):
        code = main(["goalseek", "--study", "pdf1d", "--target", "100000"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestPlatformsCommand:
    def test_lists_catalog(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "Nallatech H101-PCIXM" in out
        assert "XtremeData XD1000" in out
        assert "Virtex-4 LX100" in out


class TestSampleWorksheets:
    @pytest.mark.parametrize(
        "name", ["pdf1d", "pdf2d", "md", "custom"]
    )
    def test_bundled_worksheets_load(self, name, capsys):
        import pathlib

        path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "examples" / "worksheets" / f"{name}.json"
        )
        assert path.exists(), path
        assert main(["worksheet", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_custom_worksheet_values(self, capsys):
        import json
        import pathlib

        path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "examples" / "worksheets" / "custom.json"
        )
        data = json.loads(path.read_text())
        assert data["alpha_write"] == 0.7
        from repro.core.params import RATInput

        rat = RATInput.from_dict(data)
        assert rat.dataset.elements_in == 65536


class TestLintCommand:
    def test_study_with_findings_returns_one(self, capsys):
        assert main(["lint", "--study", "pdf1d"]) == 1
        out = capsys.readouterr().out
        assert "small-transfers" in out

    def test_clean_study_returns_zero(self, capsys):
        assert main(["lint", "--study", "md"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_json_without_platform_skips_curve_checks(self, tmp_path, capsys,
                                                      pdf1d_rat):
        import json as json_module

        path = tmp_path / "ws.json"
        path.write_text(json_module.dumps(pdf1d_rat.to_dict()))
        main(["lint", "--json", str(path)])
        out = capsys.readouterr().out
        assert "alpha-optimistic" not in out

    def test_json_with_explicit_platform(self, tmp_path, capsys, pdf1d_rat):
        import json as json_module

        path = tmp_path / "ws.json"
        path.write_text(json_module.dumps(pdf1d_rat.to_dict()))
        assert main([
            "lint", "--json", str(path),
            "--platform", "Nallatech H101-PCIXM",
        ]) == 1
        assert "small-transfers" in capsys.readouterr().out


class TestJsonOutput:
    def test_worksheet_format_json(self, capsys):
        assert main(["worksheet", "--study", "pdf1d", "--format", "json",
                     "--clocks", "75,150"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "1-D PDF"
        assert data["mode"] == "single"
        assert len(data["predictions"]) == 2
        assert {"clock_mhz", "t_comm", "t_comp", "t_rc", "speedup"} <= set(
            data["predictions"][0]
        )
        assert data["inputs"]["elements_in"] == 512

    def test_study_json_flag(self, capsys):
        assert main(["study", "pdf1d", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["actual"]["speedup"] > 0
        assert data["resources"]["fits"] is True
        assert 0 < data["resources"]["utilization"]["bram"] < 1
        assert len(data["predictions"]) == 3

    def test_study_format_json_equivalent(self, capsys):
        assert main(["study", "md", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "Molecular dynamics"


class TestTraceCommand:
    def test_pdf1d_trace_is_valid_and_overlapped(self, tmp_path, capsys):
        from repro.obs import SimTrace, TRACK_COMPUTE, TRACK_WRITE

        out = tmp_path / "trace.json"
        assert main(["trace", "--study", "pdf1d", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "lanes overlap" in stdout
        document = json.loads(out.read_text())
        x_events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert len(x_events) == 1200  # 400 x (write + compute + read)
        for event in x_events:
            assert event["ts"] >= 0 and event["dur"] >= 0
        # Rebuild intervals per track to verify the Figure-2 overlap.
        tids = {
            e["args"]["name"]: e["tid"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        write_iv = sorted(
            (e["ts"], e["ts"] + e["dur"])
            for e in x_events if e["tid"] == tids[TRACK_WRITE]
        )
        comp_iv = sorted(
            (e["ts"], e["ts"] + e["dur"])
            for e in x_events if e["tid"] == tids[TRACK_COMPUTE]
        )
        assert any(
            ws < ce and cs < we
            for ws, we in write_iv for cs, ce in comp_iv
        )

    def test_single_buffered_trace_has_no_overlap(self, tmp_path, capsys):
        out = tmp_path / "sb.json"
        assert main(["trace", "--study", "pdf1d", "--out", str(out),
                     "--single-buffered"]) == 0
        assert "do not overlap" in capsys.readouterr().out

    def test_clock_override(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["trace", "--study", "pdf1d", "--out", str(out),
                     "--clock", "75"]) == 0
        assert "75 MHz" in capsys.readouterr().out

    def test_unwritable_out_is_clean_error(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "trace.json"
        assert main(["trace", "--study", "pdf1d", "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err


class TestObservabilityFlags:
    @pytest.fixture(autouse=True)
    def clean_observability(self):
        from repro.obs import reset

        reset()
        yield
        reset()

    def test_trace_flag_writes_chrome_file(self, tmp_path, capsys):
        trace_path = tmp_path / "wall.json"
        assert main(["--trace", str(trace_path),
                     "worksheet", "--study", "pdf1d"]) == 0
        document = json.loads(trace_path.read_text())
        names = [e["name"] for e in document["traceEvents"] if e["ph"] == "X"]
        assert "rat.predict" in names
        assert "wrote trace" in capsys.readouterr().err

    def test_metrics_flag_writes_summary(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.txt"
        assert main(["--metrics", str(metrics_path),
                     "experiment", "fig3"]) == 0
        text = metrics_path.read_text()
        assert "experiment.fig3.wall_s" in text
        assert "experiment.pass" in text

    def test_flags_exported_even_on_command_failure(self, tmp_path):
        metrics_path = tmp_path / "metrics.txt"
        code = main(["--metrics", str(metrics_path),
                     "goalseek", "--study", "pdf1d", "--target", "100000"])
        assert code == 2
        assert metrics_path.exists()


class TestSweepCommand:
    def test_clock_sweep_chart(self, capsys):
        assert main(["sweep", "--study", "pdf1d", "--variable", "clock",
                     "--values", "75,150"]) == 0
        out = capsys.readouterr().out
        assert "speedup vs clock_hz" in out
        assert "#" in out
        assert "best:" in out

    def test_alpha_sweep(self, capsys):
        assert main(["sweep", "--study", "pdf2d", "--variable", "alpha",
                     "--values", "0.1,0.37,0.9"]) == 0
        assert "alpha" in capsys.readouterr().out

    def test_throughput_sweep_double_buffered(self, capsys):
        assert main(["sweep", "--study", "md",
                     "--variable", "throughput_proc",
                     "--values", "25,50,100", "--double-buffered"]) == 0
        assert "best:" in capsys.readouterr().out


class TestExploreCommand:
    def test_table_output(self, capsys):
        assert main(["explore", "--study", "pdf1d",
                     "--axis", "clock_mhz=75,100,150",
                     "--axis", "alpha=0.2,0.8"]) == 0
        out = capsys.readouterr().out
        assert "clock_mhz" in out and "alpha" in out
        assert "speedup" in out and "bound" in out
        assert "6 point(s)" in out
        assert "single-buffered" in out

    def test_json_output(self, capsys):
        assert main(["explore", "--study", "pdf2d", "--format", "json",
                     "--axis", "clock_mhz=100,150",
                     "--double-buffered"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["points"] == 2
        assert payload["mode"] == "double"
        assert payload["axes"]["clock_mhz"] == [100.0, 150.0]
        speedups = [p["speedup"] for p in payload["predictions"]]
        assert speedups == sorted(speedups, reverse=True)

    def test_range_axis_spec(self, capsys):
        assert main(["explore", "--study", "pdf1d",
                     "--axis", "clock_mhz=50:250:5"]) == 0
        assert "5 point(s)" in capsys.readouterr().out

    def test_top_limits_rows(self, capsys):
        assert main(["explore", "--study", "pdf1d", "--format", "json",
                     "--axis", "clock_mhz=50:250:9", "--top", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["points"] == 9
        assert len(payload["predictions"]) == 3

    def test_malformed_axis_is_an_error(self, capsys):
        assert main(["explore", "--study", "pdf1d",
                     "--axis", "clock_mhz"]) == 2
        assert "malformed axis" in capsys.readouterr().err

    def test_unknown_axis_is_an_error(self, capsys):
        assert main(["explore", "--study", "pdf1d",
                     "--axis", "warp=1,2"]) == 2
        assert "unknown design axis" in capsys.readouterr().err

    def test_quarantine_reports_failures(self, capsys):
        assert main(["explore", "--study", "pdf1d",
                     "--axis", "clock_mhz=0,100,150",
                     "--on-error", "quarantine"]) == 0
        out = capsys.readouterr().out
        assert "3 point(s)" in out
        assert "1 failed point(s) [quarantine]:" in out
        assert "clock_hz must be positive and finite, got 0.0" in out

    def test_quarantine_json_failures(self, capsys):
        assert main(["explore", "--study", "pdf1d", "--format", "json",
                     "--axis", "clock_mhz=0,100,150",
                     "--on-error", "quarantine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed_points"] == 1
        assert len(payload["failures"]) == 1
        # NaN rows stay out of the ranked predictions.
        assert len(payload["predictions"]) == 2
        speedups = [p["speedup"] for p in payload["predictions"]]
        assert speedups == sorted(speedups, reverse=True)

    def test_bad_design_fails_by_default(self, capsys):
        assert main(["explore", "--study", "pdf1d",
                     "--axis", "clock_mhz=0,100"]) == 2
        assert "clock_hz must be positive" in capsys.readouterr().err

    def test_checkpoint_and_resume_flags(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        args = ["explore", "--study", "pdf1d",
                "--axis", "clock_mhz=50:250:9", "--chunk", "3",
                "--checkpoint", str(journal)]
        assert main(args) == 0
        capsys.readouterr()
        assert journal.exists()
        assert main(args + ["--resume"]) == 0
        assert "3 chunk(s) resumed from checkpoint" in capsys.readouterr().out

    def test_resume_without_checkpoint_is_an_error(self, capsys):
        assert main(["explore", "--study", "pdf1d",
                     "--axis", "clock_mhz=100,150", "--resume"]) == 2
        assert "checkpoint" in capsys.readouterr().err


class TestPlatformsJson:
    def test_machine_readable_catalog(self, capsys):
        assert main(["platforms", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"platforms", "devices", "interconnects"}
        names = {p["name"] for p in payload["platforms"]}
        assert "Nallatech H101-PCIXM" in names
        for platform in payload["platforms"]:
            assert set(platform) == {
                "name", "device", "interconnect", "ideal_mbps",
                "host_description",
            }
            assert platform["ideal_mbps"] > 0
            assert platform["device"] in payload["devices"]

    def test_table_remains_default(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Platforms:")


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8321
        assert args.max_batch == 64
        assert args.max_pending == 1024
        # Cluster mode is opt-in: 0 shards means single-process.
        assert args.shards == 0
        assert args.min_shards == 1
        assert args.restart_backoff == 0.1
        assert args.restart_budget == 5
        assert args.restart_window == 30.0
        assert args.heartbeat_timeout == 3.0

    def test_parser_cluster_overrides(self):
        args = build_parser().parse_args([
            "serve", "--shards", "4", "--min-shards", "3",
            "--restart-backoff", "0.5", "--restart-budget", "2",
            "--restart-window", "60", "--heartbeat-timeout", "10",
        ])
        assert args.shards == 4
        assert args.min_shards == 3
        assert args.restart_backoff == 0.5
        assert args.restart_budget == 2
        assert args.restart_window == 60.0
        assert args.heartbeat_timeout == 10.0

    def test_parser_overrides(self):
        args = build_parser().parse_args([
            "serve", "--host", "0.0.0.0", "--port", "0",
            "--max-batch", "256", "--max-pending", "32",
            "--deadline-ms", "250", "--drain-timeout", "3",
        ])
        assert args.port == 0
        assert args.max_batch == 256
        assert args.deadline_ms == 250.0
        assert args.drain_timeout == 3.0

    def test_coalescing_window_flag_is_gone(self, capsys):
        # Batches form on wake; there is no window left to set.
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["serve", "--max-wait-us", "0"])
        assert info.value.code == 2
        assert "--max-wait-us" in capsys.readouterr().err

    def test_serve_boots_answers_and_drains(self):
        """End-to-end through the serving stack the CLI handler wraps:
        boot on an ephemeral port, predict over a real socket, drain."""
        import asyncio
        import json as json_mod
        import urllib.request

        from repro.serve import RATApp, RATServer

        ws_path = "examples/worksheets/pdf1d.json"
        with open(ws_path, encoding="utf-8") as handle:
            worksheet = json_mod.load(handle)

        async def scenario():
            server = RATServer(RATApp(), host="127.0.0.1", port=0)
            await server.start()

            def hit():
                request = urllib.request.Request(
                    f"http://127.0.0.1:{server.port}/v1/predict",
                    data=json_mod.dumps(worksheet).encode(),
                )
                with urllib.request.urlopen(request, timeout=10) as resp:
                    return json_mod.loads(resp.read())

            payload = await asyncio.to_thread(hit)
            await server.shutdown()
            return payload

        payload = asyncio.run(scenario())
        assert payload["predictions"]["single"]["speedup"] > 0
