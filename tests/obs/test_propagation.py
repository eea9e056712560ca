"""Trace-context propagation: W3C wire form, ambient context, dicts."""

import pytest

from repro.obs.propagation import (
    TraceContext,
    activate,
    context,
    current_context,
    deactivate,
    format_traceparent,
    new_context,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)

TRACE = "4bf92f3577b34da6a3ce929d0e0e4736"
SPAN = "00f067aa0ba902b7"


class TestIds:
    def test_shapes(self):
        assert len(new_trace_id()) == 32
        assert len(new_span_id()) == 16
        int(new_trace_id(), 16)  # pure hex
        int(new_span_id(), 16)

    def test_uniqueness(self):
        assert len({new_trace_id() for _ in range(100)}) == 100

    def test_lowercase(self):
        trace_id = new_trace_id()
        assert trace_id == trace_id.lower()


class TestTraceContext:
    def test_validates_trace_id(self):
        with pytest.raises(ValueError):
            TraceContext("nope", SPAN)
        with pytest.raises(ValueError):
            TraceContext("0" * 32, SPAN)  # all-zeros is invalid per W3C
        with pytest.raises(ValueError):
            TraceContext(TRACE.upper(), SPAN)  # wire form is lowercase

    def test_validates_span_id(self):
        with pytest.raises(ValueError):
            TraceContext(TRACE, "0" * 16)
        with pytest.raises(ValueError):
            TraceContext(TRACE, SPAN + "00")

    def test_child_keeps_trace_and_baggage(self):
        parent = TraceContext(TRACE, SPAN, {"tenant": "a"})
        child = parent.child(new_span_id())
        assert child.trace_id == TRACE
        assert child.span_id != SPAN
        assert child.baggage == {"tenant": "a"}


class TestTraceparent:
    def test_round_trip(self):
        ctx = TraceContext(TRACE, SPAN)
        parsed = parse_traceparent(format_traceparent(ctx))
        assert parsed.trace_id == TRACE
        assert parsed.span_id == SPAN

    def test_flags(self):
        ctx = new_context()
        assert format_traceparent(ctx).endswith("-01")
        assert format_traceparent(ctx, sampled=False).endswith("-00")

    def test_case_and_whitespace_tolerated(self):
        header = f"  00-{TRACE.upper()}-{SPAN.upper()}-01  "
        parsed = parse_traceparent(header)
        assert parsed is not None
        assert parsed.trace_id == TRACE

    @pytest.mark.parametrize(
        "bad",
        [
            None,
            "",
            "garbage",
            f"00-{TRACE}",  # too few segments
            f"00-{TRACE[:-1]}-{SPAN}-01",  # short trace id
            f"00-{TRACE}-{SPAN}xx-01",  # long span id
            f"00-{'0' * 32}-{SPAN}-01",  # all-zero trace id
            f"00-{TRACE}-{'0' * 16}-01",  # all-zero span id
            f"ff-{TRACE}-{SPAN}-01",  # version ff is reserved
            f"0-{TRACE}-{SPAN}-01",  # one-digit version
            f"zz-{TRACE}-{SPAN}-01",  # non-hex version
        ],
    )
    def test_malformed_dropped_not_raised(self, bad):
        assert parse_traceparent(bad) is None

    def test_future_version_with_extra_segments_accepted(self):
        # Per W3C, parsers must accept versions above 00 with trailing
        # fields they do not understand.
        header = f"01-{TRACE}-{SPAN}-01-extra-stuff"
        parsed = parse_traceparent(header)
        assert parsed is not None
        assert parsed.trace_id == TRACE


class TestAmbientContext:
    def test_default_is_none(self):
        assert current_context() is None

    def test_activate_deactivate(self):
        ctx = new_context()
        token = activate(ctx)
        try:
            assert current_context() is ctx
        finally:
            deactivate(token)
        assert current_context() is None

    def test_context_manager_restores_on_error(self):
        ctx = new_context()
        with pytest.raises(RuntimeError):
            with context(ctx):
                assert current_context() is ctx
                raise RuntimeError("boom")
        assert current_context() is None

    def test_nesting(self):
        outer, inner = new_context(), new_context()
        with context(outer):
            with context(inner):
                assert current_context() is inner
            assert current_context() is outer
