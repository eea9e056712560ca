"""Cross-process trace-context propagation (W3C ``traceparent`` style).

PR 1's tracer records spans inside one process; this module gives a
request an *identity that survives process boundaries*.  A
:class:`TraceContext` is the (trace_id, span_id, baggage) triple of the
distributed-tracing literature, carried through the program via
:mod:`contextvars` so it follows the logical flow of control — across
``await`` points and into ``asyncio.to_thread`` workers.

Two transports:

HTTP headers
    :func:`parse_traceparent` / :func:`format_traceparent` implement the
    W3C Trace Context wire form ``00-{trace_id}-{span_id}-{flags}``
    (32 + 16 lowercase hex digits).  The serve layer extracts the header
    on ingress and injects the request span's identity on egress, so an
    upstream caller sees its trace continued.
ambient context
    :func:`current_context` / :func:`activate` / the :func:`context`
    context manager.  The tracer reads the ambient context when a span
    begins — a span started under an active context adopts its trace_id
    and, when the span has no in-process parent, records the context's
    span_id as its ``remote_parent`` so exported trees connect across
    processes.

Identifiers are random, minted with :func:`random.getrandbits` rather
than :func:`uuid.uuid4` — trace ids need uniqueness, not secrecy, and
the serve layer mints one per HTTP request on the event-loop hot path
(uuid4 costs ~2µs per id; getrandbits ~0.2µs).  Tests may pass explicit
ids for determinism.  The module deliberately has no dependencies beyond
the stdlib so any layer can import it freely.
"""

from __future__ import annotations

import contextvars
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from random import getrandbits
from typing import Iterator, Mapping

__all__ = [
    "TraceContext",
    "activate",
    "context",
    "current_context",
    "deactivate",
    "format_traceparent",
    "new_context",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
]

#: The ambient trace context for the current logical flow of control.
_CURRENT: contextvars.ContextVar["TraceContext | None"] = contextvars.ContextVar(
    "repro_trace_context", default=None
)

_HEX = set("0123456789abcdef")
_HEX32 = re.compile(r"[0-9a-f]{32}\Z")
_HEX16 = re.compile(r"[0-9a-f]{16}\Z")


def new_trace_id() -> str:
    """A fresh random 32-hex-digit trace id (never all zeros)."""
    return f"{getrandbits(128) or 1:032x}"


def new_span_id() -> str:
    """A fresh random 16-hex-digit span id (never all zeros)."""
    return f"{getrandbits(64) or 1:016x}"


def _valid_hex(value: str, width: int) -> bool:
    pattern = _HEX32 if width == 32 else _HEX16
    return bool(pattern.match(value)) and value != "0" * width


@dataclass(frozen=True)
class TraceContext:
    """One request's distributed identity: trace id, span id, baggage.

    ``trace_id`` names the whole request tree (32 hex digits);
    ``span_id`` names the *current* position in it (16 hex digits) — the
    span a downstream child should record as its parent.  ``baggage``
    carries small key/value annotations along the call path (it is
    propagated, never interpreted).
    """

    trace_id: str
    span_id: str
    baggage: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not _valid_hex(self.trace_id, 32):
            raise ValueError(f"malformed trace_id {self.trace_id!r}")
        if not _valid_hex(self.span_id, 16):
            raise ValueError(f"malformed span_id {self.span_id!r}")

    def child(self, span_id: str) -> "TraceContext":
        """The context a child operation should run under."""
        return _trusted(self.trace_id, span_id, self.baggage)


def _trusted(
    trace_id: str, span_id: str, baggage: Mapping[str, str]
) -> TraceContext:
    """Construct without re-validating ids the caller already validated.

    ``TraceContext``'s ``__post_init__`` guards arbitrary caller input,
    but the ids minted by :func:`new_context` and checked by
    :func:`parse_traceparent` are valid by construction — and both run
    once per HTTP request, where the redundant regex passes and frozen
    dataclass ``__init__`` are measurable.
    """
    ctx = object.__new__(TraceContext)
    object.__setattr__(ctx, "trace_id", trace_id)
    object.__setattr__(ctx, "span_id", span_id)
    object.__setattr__(ctx, "baggage", baggage)
    return ctx


def new_context(baggage: Mapping[str, str] | None = None) -> TraceContext:
    """Start a brand-new trace (no upstream parent)."""
    return _trusted(new_trace_id(), new_span_id(), dict(baggage or {}))


def current_context() -> TraceContext | None:
    """The ambient context of the current logical flow, if any."""
    return _CURRENT.get()


def activate(ctx: TraceContext | None) -> contextvars.Token:
    """Install ``ctx`` as the ambient context; returns a restore token."""
    return _CURRENT.set(ctx)


def deactivate(token: contextvars.Token) -> None:
    """Restore the ambient context captured by :func:`activate`."""
    _CURRENT.reset(token)


@contextmanager
def context(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """``with context(ctx):`` — scoped :func:`activate`/:func:`deactivate`."""
    token = activate(ctx)
    try:
        yield ctx
    finally:
        deactivate(token)


def parse_traceparent(value: str | None) -> TraceContext | None:
    """Decode a W3C ``traceparent`` header; None when absent/malformed.

    Malformed headers are *dropped*, not errored: a bad upstream tracing
    deployment must not fail requests, so the request simply starts a
    new trace.
    """
    if not value:
        return None
    parts = value.strip().lower().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, span_id = parts[0], parts[1], parts[2]
    if version == "ff" or len(version) != 2 or not set(version) <= _HEX:
        return None
    if not _valid_hex(trace_id, 32) or not _valid_hex(span_id, 16):
        return None
    return _trusted(trace_id, span_id, {})


def format_traceparent(ctx: TraceContext, *, sampled: bool = True) -> str:
    """Encode a context as a W3C ``traceparent`` header value."""
    flags = "01" if sampled else "00"
    return f"00-{ctx.trace_id}-{ctx.span_id}-{flags}"
