"""Command-line interface: ``rat`` (or ``python -m repro``).

Subcommands
-----------
``rat worksheet --json FILE | --study NAME [--clocks 75,100,150]``
    Render the input sheet and predicted performance table for a
    worksheet (from a JSON file of Table-1 fields or a named study).
    ``--format json`` emits the predictions as machine-readable JSON.
``rat study NAME [--json]``
    Full case-study report: inputs, predicted table with the simulated
    actual column, and the resource report (``--json`` for scripting).
``rat experiment ID | --all``
    Run one (or every) registered paper reproduction experiment.
``rat goalseek --study NAME --target X [--variable throughput_proc]``
    Inverse analysis: the parameter value needed for a target speedup.
``rat trace --study NAME --out FILE``
    Run the event-driven simulator and export the realised schedule as a
    Chrome trace-event file (open in chrome://tracing / Perfetto).
``rat explore --study NAME --axis clock_mhz=75,100,150 --axis alpha=0.1:0.5:9``
    Grid design-space exploration on the vectorized batch engine:
    every combination of the axis values is predicted in bulk
    (``--chunk`` sets the chunk size; ``--format json`` emits
    machine-readable records, ``--top K`` keeps the K best by speedup).
    Fault tolerance: ``--on-error {fail,skip,quarantine}`` picks the
    invalid-design policy, and ``--checkpoint PATH`` with ``--resume``
    journals completed chunks for crash recovery.
``rat platforms [--format json]``
    List catalogued platforms/devices/interconnects (``--format json``
    for a machine-readable catalog).
``rat serve [--host H] [--port P] [--max-batch N]``
    Run the micro-batching HTTP prediction service (``POST /v1/predict``,
    ``/v1/batch``, ``/v1/explore``; ``GET /healthz``, ``/healthz/live``,
    ``/healthz/ready``, ``/metrics`` in Prometheus exposition format).
    Concurrent single predictions are coalesced onto the vectorized
    batch engine: each batch is whatever queued while the last one ran,
    up to ``--max-batch`` rows.  Drains gracefully on SIGTERM/SIGINT.
    ``--access-log [FILE]`` streams structured JSONL access and
    lifecycle events (stderr when no file is given).  ``--shards N`` runs the
    self-healing multi-process cluster instead: N shard processes share
    the port, a supervisor restarts crashes with backoff (benching
    crash-loopers behind a ``--restart-budget`` circuit breaker), kills
    hung shards, rolls restarts on SIGHUP, and keeps ``/healthz/ready``
    honest against the ``--min-shards`` readiness floor.
    ``--metrics-port P`` adds a supervisor-side listener serving the
    cluster-merged Prometheus ``/metrics`` (restart-monotone counters)
    and JSON ``/status``; ``--max-shards N`` enables queue-depth
    autoscaling between the ``--min-shards`` floor and N
    (``--scale-up-depth`` / ``--scale-down-depth`` hysteresis,
    ``--scale-cooldown`` between actions).

Global observability flags (any subcommand): ``--trace FILE`` records
wall-clock spans of the run itself and writes a Chrome trace; ``--metrics
FILE`` writes the plain-text metrics summary; ``--log-json FILE``
streams structured JSONL events (``-`` for stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Sequence

from . import __version__
from .analysis.experiments import list_experiments, run_all_experiments, run_experiment
from .apps.registry import get_case_study, list_case_studies
from .core.buffering import BufferingMode
from .core.goalseek import required_alpha, required_clock, required_throughput_proc
from .core.params import RATInput
from .core.worksheet import RATWorksheet
from .errors import RATError
from .obs import (
    SimTrace,
    TRACK_COMPUTE,
    TRACK_READ,
    TRACK_WRITE,
    configure,
    get_metrics,
    get_tracer,
    write_chrome_trace,
    write_metrics_summary,
)
from .platforms import list_devices, list_interconnects, list_platforms, get_platform
from .units import MB, MHZ

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="rat",
        description="RAT: RC Amenability Test — FPGA migration performance "
        "prediction (reproduction of Holland et al., HPRCTA'07)",
    )
    parser.add_argument("--version", action="version", version=f"rat {__version__}")
    parser.add_argument(
        "--trace",
        default="",
        metavar="FILE",
        help="record wall-clock spans of this run and write a Chrome "
        "trace-event JSON file on exit",
    )
    parser.add_argument(
        "--metrics",
        default="",
        metavar="FILE",
        help="write the plain-text metrics summary on exit",
    )
    parser.add_argument(
        "--log-json",
        default="",
        metavar="FILE",
        help="stream structured JSONL log events to FILE ('-' for stderr)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ws = sub.add_parser("worksheet", help="render a RAT worksheet")
    source = ws.add_mutually_exclusive_group(required=True)
    source.add_argument("--json", help="path to a worksheet JSON file")
    source.add_argument("--study", choices=list_case_studies())
    ws.add_argument(
        "--clocks", default="", help="comma-separated clock sweep in MHz"
    )
    ws.add_argument(
        "--double-buffered", action="store_true", help="use Equation (6)"
    )
    ws.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="output format (json emits inputs + predictions for scripting)",
    )

    st = sub.add_parser("study", help="full case-study report")
    st.add_argument("name", choices=list_case_studies())
    st.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="output format",
    )
    st.add_argument(
        "--json",
        action="store_const",
        const="json",
        dest="format",
        help="shorthand for --format json",
    )

    ex = sub.add_parser("experiment", help="run paper reproduction experiments")
    ex_target = ex.add_mutually_exclusive_group(required=True)
    ex_target.add_argument("id", nargs="?", choices=list_experiments())
    ex_target.add_argument("--all", action="store_true")

    gs = sub.add_parser("goalseek", help="inverse analysis for a target speedup")
    gs.add_argument("--study", required=True, choices=list_case_studies())
    gs.add_argument("--target", type=float, required=True)
    gs.add_argument(
        "--variable",
        default="throughput_proc",
        choices=["throughput_proc", "clock", "alpha"],
    )
    gs.add_argument("--double-buffered", action="store_true")

    sweep = sub.add_parser(
        "sweep", help="sweep one parameter and chart predicted speedup"
    )
    sweep.add_argument("--study", required=True, choices=list_case_studies())
    sweep.add_argument(
        "--variable", default="clock",
        choices=["clock", "alpha", "throughput_proc"],
    )
    sweep.add_argument(
        "--values", required=True,
        help="comma-separated values (MHz for clock, fractions for alpha)",
    )
    sweep.add_argument("--double-buffered", action="store_true")

    lint = sub.add_parser(
        "lint", help="check a worksheet for the paper's classic mistakes"
    )
    lint_source = lint.add_mutually_exclusive_group(required=True)
    lint_source.add_argument("--json", help="path to a worksheet JSON file")
    lint_source.add_argument("--study", choices=list_case_studies())
    lint.add_argument(
        "--platform", default="",
        help="platform name for curve-based checks (default: the study's)",
    )
    lint.add_argument("--double-buffered", action="store_true")

    report = sub.add_parser(
        "report", help="generate the Markdown reproduction report"
    )
    report.add_argument(
        "--output", "-o", default="", help="write to a file instead of stdout"
    )

    trace = sub.add_parser(
        "trace",
        help="simulate a study and export its schedule as a Chrome trace",
    )
    trace.add_argument("--study", required=True, choices=list_case_studies())
    trace.add_argument(
        "--out", required=True, help="output path for the trace-event JSON"
    )
    trace.add_argument(
        "--clock",
        type=float,
        default=None,
        help="fabric clock in MHz (default: the study's measured clock)",
    )
    trace.add_argument(
        "--single-buffered",
        action="store_true",
        help="trace the sequential schedule instead of the default "
        "double-buffered overlap (paper Figure 2)",
    )
    trace.add_argument(
        "--buffers",
        type=int,
        default=None,
        help="explicit buffer-pool depth (overrides the buffering mode)",
    )

    explore_cmd = sub.add_parser(
        "explore",
        help="grid design-space exploration on the batch engine",
    )
    explore_cmd.add_argument(
        "--study", required=True, choices=list_case_studies()
    )
    explore_cmd.add_argument(
        "--axis",
        action="append",
        required=True,
        metavar="NAME=SPEC",
        help="axis values: NAME=v1,v2,... or NAME=lo:hi:count (linspace); "
        "repeat for a multi-axis grid",
    )
    explore_cmd.add_argument("--double-buffered", action="store_true")
    explore_cmd.add_argument(
        "--on-error",
        default="fail",
        choices=["fail", "skip", "quarantine"],
        help="failure policy: abort on the first bad design (fail), "
        "drop failed rows (skip), or keep NaN rows with diagnostics "
        "(quarantine)",
    )
    explore_cmd.add_argument(
        "--checkpoint",
        default="",
        metavar="PATH",
        help="journal completed chunks to this JSONL file for crash "
        "recovery",
    )
    explore_cmd.add_argument(
        "--resume",
        action="store_true",
        help="resume from the --checkpoint journal of an interrupted run",
    )
    explore_cmd.add_argument(
        "--chunk",
        type=int,
        default=0,
        metavar="N",
        help="design points per batch chunk (default: engine default)",
    )
    explore_cmd.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="K",
        help="print only the K highest-speedup points",
    )
    explore_cmd.add_argument(
        "--format",
        default="table",
        choices=["table", "json"],
        help="output format",
    )

    plat = sub.add_parser("platforms", help="list the platform catalog")
    plat.add_argument(
        "--format",
        default="table",
        choices=["table", "json"],
        help="output format",
    )

    srv = sub.add_parser(
        "serve",
        help="run the micro-batching HTTP prediction service",
    )
    srv.add_argument("--host", default="127.0.0.1", help="bind address")
    srv.add_argument(
        "--port",
        type=int,
        default=8321,
        help="bind port (0 picks an ephemeral port, printed at startup)",
    )
    srv.add_argument(
        "--max-batch",
        type=int,
        default=64,
        metavar="N",
        help="max single predictions coalesced per batch (default 64)",
    )
    srv.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        metavar="N",
        help="admission-queue bound; beyond it requests get 429",
    )
    srv.add_argument(
        "--deadline-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="default per-request deadline (0 = none; expired -> 504)",
    )
    srv.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="seconds to wait for in-flight work on SIGTERM (default 10)",
    )
    srv.add_argument(
        "--access-log",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit one structured JSONL event per request (plus batcher "
        "lifecycle events) to FILE, or stderr when no file is given",
    )
    srv.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="run N shard processes behind a self-healing supervisor "
        "(0 = classic single-process mode, the default)",
    )
    srv.add_argument(
        "--min-shards",
        type=int,
        default=1,
        metavar="N",
        help="readiness floor: /healthz/ready answers 503 while fewer "
        "than N shards are ready (default 1)",
    )
    srv.add_argument(
        "--restart-backoff",
        type=float,
        default=0.1,
        metavar="S",
        help="initial crash-restart backoff in seconds, doubling per "
        "consecutive restart (default 0.1)",
    )
    srv.add_argument(
        "--restart-budget",
        type=int,
        default=5,
        metavar="N",
        help="circuit breaker: bench a shard after N restarts within "
        "the restart window (default 5)",
    )
    srv.add_argument(
        "--restart-window",
        type=float,
        default=30.0,
        metavar="S",
        help="sliding window for the restart budget (default 30)",
    )
    srv.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=3.0,
        metavar="S",
        help="liveness deadline: a shard silent this long is killed "
        "and restarted (default 3)",
    )
    srv.add_argument(
        "--max-shards",
        type=int,
        default=0,
        metavar="N",
        help="autoscaling ceiling: spawn shards under queue pressure "
        "up to N, retire idle ones back to --min-shards "
        "(0 disables autoscaling, the default)",
    )
    srv.add_argument(
        "--scale-up-depth",
        type=float,
        default=8.0,
        metavar="D",
        help="spawn a shard when smoothed queue depth per ready shard "
        "exceeds D (default 8)",
    )
    srv.add_argument(
        "--scale-down-depth",
        type=float,
        default=1.0,
        metavar="D",
        help="retire the newest idle shard when smoothed queue depth "
        "per ready shard falls below D (default 1)",
    )
    srv.add_argument(
        "--scale-cooldown",
        type=float,
        default=5.0,
        metavar="S",
        help="minimum seconds between autoscaling actions (default 5)",
    )
    srv.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the aggregated cluster /metrics (and JSON /status) "
        "from the supervisor on this port (0 picks an ephemeral "
        "port, printed at startup; omit to disable)",
    )

    return parser


def _parse_clocks(text: str) -> tuple[float, ...]:
    if not text:
        return ()
    return tuple(float(part) for part in text.split(",") if part.strip())


def _cmd_worksheet(args: argparse.Namespace) -> int:
    if args.json:
        with open(args.json, encoding="utf-8") as handle:
            rat = RATInput.from_dict(json.load(handle))
    else:
        rat = get_case_study(args.study).rat
    worksheet = RATWorksheet(rat, clocks_mhz=_parse_clocks(args.clocks))
    mode = BufferingMode.DOUBLE if args.double_buffered else BufferingMode.SINGLE
    if args.format == "json":
        table = worksheet.performance_table(mode)
        print(json.dumps(
            {
                "name": rat.name,
                "mode": mode.value,
                "inputs": rat.to_dict(),
                "predictions": table.as_records(),
            },
            indent=2,
            sort_keys=True,
        ))
        return 0
    print(worksheet.input_table())
    print()
    print(worksheet.performance_table(mode).render())
    return 0


def _study_json(study) -> dict:
    """Machine-readable study report (predictions, actual, resources)."""
    from .platforms.device import ResourceKind

    result = study.simulate()
    report = study.resource_report()
    return {
        "name": study.name,
        "platform": study.platform.name,
        "mode": study.mode.value,
        "inputs": study.rat.to_dict(),
        "predictions": study.predicted_table().as_records(),
        "actual": result.as_actual_column(study.rat.software.t_soft),
        "resources": {
            "fits": report.fits,
            "routing_risk": report.routing_risk,
            "limiting": report.limiting_resource.value,
            "utilization": {
                kind.value: report.utilization(kind) for kind in ResourceKind
            },
        },
        "notes": study.notes,
    }


def _cmd_study(args: argparse.Namespace) -> int:
    study = get_case_study(args.name)
    if args.format == "json":
        print(json.dumps(_study_json(study), indent=2, sort_keys=True))
        return 0
    print(f"# {study.name}")
    print()
    print(study.platform.describe())
    print()
    print(study.worksheet().input_table())
    print()
    print(study.performance_table_with_actual().render())
    print()
    print(study.resource_report().render())
    if study.notes:
        print()
        print(f"Notes: {study.notes}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    results = run_all_experiments() if args.all else [run_experiment(args.id)]
    failures = 0
    for result in results:
        print(result.render())
        print()
        if not result.all_within:
            failures += 1
    if failures:
        print(f"{failures} experiment(s) had cells outside tolerance")
    return 1 if failures else 0


def _cmd_goalseek(args: argparse.Namespace) -> int:
    study = get_case_study(args.study)
    mode = BufferingMode.DOUBLE if args.double_buffered else BufferingMode.SINGLE
    rat = study.rat
    if args.variable == "throughput_proc":
        value = required_throughput_proc(rat, args.target, mode)
        print(
            f"{study.name}: {value:.2f} ops/cycle required for "
            f"{args.target:g}x ({mode.value}-buffered, at "
            f"{rat.computation.clock_mhz:g} MHz)"
        )
    elif args.variable == "clock":
        value = required_clock(rat, args.target, mode)
        print(
            f"{study.name}: {value / MHZ:.1f} MHz required for {args.target:g}x "
            f"({mode.value}-buffered, at {rat.computation.throughput_proc:g} "
            "ops/cycle)"
        )
    else:
        value = required_alpha(rat, args.target, mode)
        feasible = "" if value <= 1 else "  (INFEASIBLE: exceeds 1)"
        print(
            f"{study.name}: uniform alpha {value:.3f} required for "
            f"{args.target:g}x ({mode.value}-buffered){feasible}"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.sweep import sweep_alpha, sweep_clock, sweep_throughput_proc

    study = get_case_study(args.study)
    mode = BufferingMode.DOUBLE if args.double_buffered else BufferingMode.SINGLE
    values = [float(part) for part in args.values.split(",") if part.strip()]
    if args.variable == "clock":
        result = sweep_clock(study.rat, [v * MHZ for v in values], mode)
    elif args.variable == "alpha":
        result = sweep_alpha(study.rat, values, mode)
    else:
        result = sweep_throughput_proc(study.rat, values, mode)
    print(result.render_ascii())
    best_value, best = result.best()
    print(f"best: {args.variable}={best_value:g} -> {best.speedup:.1f}x")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .core.lint import lint_worksheet

    platform = None
    if args.json:
        with open(args.json, encoding="utf-8") as handle:
            rat = RATInput.from_dict(json.load(handle))
    else:
        study = get_case_study(args.study)
        rat = study.rat
        platform = study.platform
    if args.platform:
        platform = get_platform(args.platform)
    mode = BufferingMode.DOUBLE if args.double_buffered else BufferingMode.SINGLE
    warnings = lint_worksheet(rat, platform, mode)
    if not warnings:
        print("no findings")
        return 0
    for warning in warnings:
        print(warning.describe())
    return 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.reportgen import generate_markdown_report

    text = generate_markdown_report()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    study = get_case_study(args.study)
    mode = (
        BufferingMode.SINGLE if args.single_buffered else BufferingMode.DOUBLE
    )
    clock = args.clock if args.clock is not None else (
        study.actual_clock_mhz or study.clocks_mhz[-1]
    )
    trace = SimTrace(name=f"{study.name} @ {clock:g} MHz ({mode.value}-buffered)")
    sim = dataclasses.replace(
        study.simulator(clock),
        mode=mode,
        n_buffers=args.buffers,
        trace=trace,
    )
    result = sim.run()
    trace.write(args.out)
    overlapped = trace.tracks_overlap(TRACK_WRITE, TRACK_COMPUTE) or (
        trace.tracks_overlap(TRACK_READ, TRACK_COMPUTE)
    )
    print(
        f"{study.name}: {result.n_iterations} iterations, "
        f"{mode.value}-buffered @ {clock:g} MHz"
    )
    print(
        f"  t_rc {result.t_rc:.3e} s, comm {result.t_comm_total:.3e} s, "
        f"comp {result.t_comp_total:.3e} s"
    )
    print(
        f"  transfer/compute lanes {'overlap' if overlapped else 'do not overlap'}"
    )
    print(
        f"wrote {len(trace.events)} trace events to {args.out} "
        "(open in chrome://tracing or https://ui.perfetto.dev)"
    )
    return 0


def _parse_axis_spec(text: str) -> tuple[str, list[float]]:
    """Parse one ``--axis NAME=v1,v2,...`` / ``NAME=lo:hi:count`` flag."""
    from .errors import ParameterError
    from .explore import axis_range

    name, separator, spec = text.partition("=")
    name, spec = name.strip(), spec.strip()
    if not separator or not name or not spec:
        raise ParameterError(
            f"malformed axis {text!r}; expected NAME=v1,v2,... or "
            "NAME=lo:hi:count"
        )
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ParameterError(
                f"malformed axis range {spec!r}; expected lo:hi:count"
            )
        return name, axis_range(
            name, float(parts[0]), float(parts[1]), int(parts[2])
        )
    return name, [float(part) for part in spec.split(",") if part.strip()]


def _cmd_explore(args: argparse.Namespace) -> int:
    from .explore import DEFAULT_CHUNK_SIZE, DesignSpace, explore

    study = get_case_study(args.study)
    mode = BufferingMode.DOUBLE if args.double_buffered else BufferingMode.SINGLE
    axes: dict[str, list[float]] = {}
    for flag in args.axis:
        name, values = _parse_axis_spec(flag)
        axes[name] = values
    space = DesignSpace.grid(study.rat, **axes)
    result = explore(
        space,
        mode,
        chunk_size=args.chunk if args.chunk > 0 else DEFAULT_CHUNK_SIZE,
        on_error=args.on_error,
        checkpoint=args.checkpoint or None,
        resume=args.resume,
    )
    ranked = result.ranked(args.top)
    failure_lines = [failure.describe() for failure in result.failures]
    if args.format == "json":
        print(json.dumps(
            {
                "name": study.rat.name,
                "mode": mode.value,
                "axes": {name: values for name, values in axes.items()},
                "points": len(result),
                "elapsed_s": result.elapsed_s,
                "points_per_sec": result.points_per_sec,
                "failed_points": result.n_failed,
                "failures": failure_lines,
                "resumed_chunks": result.resumed_chunks,
                "predictions": ranked,
            },
            indent=2,
            sort_keys=True,
        ))
        return 0
    axis_headers = list(space.axes)
    headers = axis_headers + ["speedup", "t_rc", "util_comm", "bound"]
    rows = []
    for record in ranked:
        bound = "comp" if record["t_comp"] >= record["t_comm"] else "comm"
        rows.append(
            [f"{record[name]:g}" for name in axis_headers]
            + [
                f"{record['speedup']:.2f}x",
                f"{record['t_rc']:.3e}",
                f"{record['util_comm']:.2f}",
                bound,
            ]
        )
    widths = [
        max(len(header), *(len(row[j]) for row in rows))
        for j, header in enumerate(headers)
    ]
    print("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    print(
        f"{len(result)} point(s) in {result.elapsed_s:.3f} s "
        f"({result.points_per_sec:,.0f} predictions/s, "
        f"{mode.value}-buffered)"
    )
    if result.resumed_chunks:
        print(f"{result.resumed_chunks} chunk(s) resumed from checkpoint")
    if failure_lines:
        shown = failure_lines[:10]
        print(f"{result.n_failed} failed point(s) [{args.on_error}]:")
        for line in shown:
            print(f"  {line}")
        if len(failure_lines) > len(shown):
            print(f"  ... and {len(failure_lines) - len(shown)} more")
    return 0


def _cmd_platforms(args: argparse.Namespace) -> int:
    if getattr(args, "format", "table") == "json":
        platforms = []
        for name in list_platforms():
            platform = get_platform(name)
            platforms.append({
                "name": platform.name,
                "device": platform.device.name,
                "interconnect": platform.interconnect.name,
                "ideal_mbps": platform.ideal_bandwidth / MB,
                "host_description": platform.host_description,
            })
        print(json.dumps(
            {
                "platforms": platforms,
                "devices": list_devices(),
                "interconnects": list_interconnects(),
            },
            indent=2,
            sort_keys=True,
        ))
        return 0
    print("Platforms:")
    for name in list_platforms():
        print(get_platform(name).describe())
        print()
    print("Devices:      " + ", ".join(list_devices()))
    print("Interconnects: " + ", ".join(list_interconnects()))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    # RATApp options, the same for one process and for every shard.
    app_options = dict(
        max_batch_size=args.max_batch,
        max_pending=args.max_pending,
        default_deadline_s=(
            args.deadline_ms * 1e-3 if args.deadline_ms > 0 else None
        ),
    )
    if args.shards > 0:
        from .serve.supervisor import RestartPolicy, run_cluster

        return run_cluster(
            shards=args.shards,
            min_shards=min(args.min_shards, args.shards),
            host=args.host,
            port=args.port,
            policy=RestartPolicy(
                backoff_initial_s=args.restart_backoff,
                budget=args.restart_budget,
                window_s=args.restart_window,
            ),
            liveness_timeout_s=args.heartbeat_timeout,
            drain_timeout_s=args.drain_timeout,
            access_log=args.access_log,
            metrics_port=args.metrics_port,
            max_shards=(
                max(args.max_shards, args.shards)
                if args.max_shards > 0
                else None
            ),
            scale_up_depth=args.scale_up_depth,
            scale_down_depth=args.scale_down_depth,
            scale_cooldown_s=args.scale_cooldown,
            **app_options,
        )

    from .serve import serve

    asyncio.run(serve(
        host=args.host,
        port=args.port,
        drain_timeout_s=args.drain_timeout,
        access_log=args.access_log,
        **app_options,
    ))
    return 0


def _export_observability(args: argparse.Namespace) -> None:
    """Honour the global ``--trace`` / ``--metrics`` flags on exit."""
    if args.trace:
        write_chrome_trace(args.trace, get_tracer())
        print(
            f"wrote trace ({len(get_tracer().spans)} spans) to {args.trace}",
            file=sys.stderr,
        )
    if args.metrics:
        write_metrics_summary(args.metrics, get_metrics())
        print(f"wrote metrics summary to {args.metrics}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.trace:
        configure(trace=True)
    if args.log_json:
        from .obs import configure_logging

        configure_logging(args.log_json)
    handlers = {
        "worksheet": _cmd_worksheet,
        "study": _cmd_study,
        "experiment": _cmd_experiment,
        "goalseek": _cmd_goalseek,
        "sweep": _cmd_sweep,
        "lint": _cmd_lint,
        "report": _cmd_report,
        "trace": _cmd_trace,
        "explore": _cmd_explore,
        "platforms": _cmd_platforms,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe: exit
        # quietly with the conventional SIGPIPE status.  Must precede
        # the OSError handler below — it is a subclass.
        try:
            sys.stdout.close()
        except OSError:  # pragma: no cover - double-close race
            pass
        return 141
    except (RATError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            _export_observability(args)
        except OSError as exc:  # pragma: no cover - unwritable export path
            print(f"error: could not export observability: {exc}",
                  file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
