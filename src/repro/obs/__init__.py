"""Observability: tracing, metrics, and timeline export.

This subsystem gives the RAT reproduction the profiling counterpart the
paper's methodology implies: predictions are only trustworthy if the
realised behaviour can be *observed*.  Three pieces:

``tracer``
    Span-based wall-clock tracing with a context-manager API, a nested
    span stack, and a zero-allocation no-op mode when disabled.
``metrics``
    A registry of counters, gauges, and percentile histograms any module
    can record into.
``export`` / ``simtrace``
    Exporters — Chrome ``chrome://tracing`` trace-event JSON, JSONL span
    logs, plain-text metrics summaries — plus :class:`SimTrace`, which
    renders *simulated* hardware schedules (the paper's Figure-2
    write/compute/read lanes) as Chrome trace tracks.
``propagation``
    Cross-process trace identity: :class:`TraceContext` carried via
    :mod:`contextvars` plus the W3C ``traceparent`` wire form, so a
    request's span tree stays connected across the HTTP boundary and
    into exploration worker processes.
``log``
    Structured JSONL event logging on stdlib :mod:`logging`, stamping
    every record with the ambient trace/span ids for correlation.
``promexport``
    The metrics registry rendered in Prometheus text exposition format
    (the serve layer's ``/metrics``).

Entry points: :func:`get_tracer` / :func:`get_metrics` fetch the
process-global instances the library's instrumentation records into;
:func:`configure` turns tracing on; the CLI's ``--trace``/``--metrics``
flags and the ``rat trace`` subcommand are thin wrappers over these.

This package deliberately imports nothing from the rest of the library
except the shared error hierarchy, so every layer can instrument itself
without import cycles.
"""

from .context import configure, get_metrics, get_tracer, reset
from .export import (
    metrics_summary,
    spans_to_chrome,
    spans_to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_metrics_summary,
)
from .log import configure_logging, event, get_logger, reset_logging
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .promexport import (
    merge_snapshots,
    render_cluster_metrics,
    render_prometheus,
    snapshot_metrics,
)
from .propagation import (
    TraceContext,
    current_context,
    format_traceparent,
    new_context,
    parse_traceparent,
)
from .simtrace import (
    SimTrace,
    TRACK_COMPUTE,
    TRACK_EVENTS,
    TRACK_READ,
    TRACK_WRITE,
    record_system_run,
    timeline_to_trace,
)
from .tracer import NOOP_SPAN, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "SimTrace",
    "Span",
    "TRACK_COMPUTE",
    "TRACK_EVENTS",
    "TRACK_READ",
    "TRACK_WRITE",
    "TraceContext",
    "Tracer",
    "configure",
    "configure_logging",
    "current_context",
    "event",
    "format_traceparent",
    "get_logger",
    "get_metrics",
    "get_tracer",
    "merge_snapshots",
    "metrics_summary",
    "new_context",
    "parse_traceparent",
    "record_system_run",
    "render_cluster_metrics",
    "render_prometheus",
    "snapshot_metrics",
    "reset",
    "reset_logging",
    "spans_to_chrome",
    "spans_to_jsonl",
    "timeline_to_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics_summary",
]
