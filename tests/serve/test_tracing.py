"""End-to-end trace propagation and telemetry behaviour of the service.

Socket-level: a client ``traceparent`` must thread through the HTTP
layer, the request span, the micro-batcher's coalesced batch, and the
exploration engine's chunk spans — one connected tree per request.
"""

import asyncio
import json
import re

import pytest

from repro.obs import configure, get_tracer, reset
from repro.serve import RATApp, RATServer

from .test_batcher import WORKSHEET

TRACE = "4bf92f3577b34da6a3ce929d0e0e4736"
SPAN = "00f067aa0ba902b7"
TRACEPARENT = f"00-{TRACE}-{SPAN}-01"


@pytest.fixture(autouse=True)
def _clean_tracer():
    reset()
    yield
    reset()


async def _start(**app_kwargs):
    app = RATApp(**app_kwargs)
    server = RATServer(app, host="127.0.0.1", port=0)
    await server.start()
    return app, server


def _wire(method, path, payload=None, traceparent=None):
    body = b"" if payload is None else json.dumps(payload).encode()
    head = f"{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {len(body)}\r\n"
    if traceparent:
        head += f"traceparent: {traceparent}\r\n"
    return (head + "\r\n").encode() + body


async def _read_response(reader):
    head = await reader.readuntil(b"\r\n\r\n")
    headers = {}
    for line in head.split(b"\r\n")[1:]:
        if b":" in line:
            name, _, value = line.partition(b":")
            headers[name.strip().lower().decode()] = value.strip().decode()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return int(head.split(b" ", 2)[1]), headers, body


async def _send(port, wire):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(wire)
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()
        await writer.wait_closed()


async def _send_together(port, *wires):
    """Send each request on its own connection, all in one loop step.

    Each connection first answers a liveness probe, so the server is
    reading every one of them; the requests then arrive in one poll of
    the server's loop and all reach the micro-batcher before its
    consumer wakes.
    """
    connections = [
        await asyncio.open_connection("127.0.0.1", port) for _ in wires
    ]
    try:
        for reader, writer in connections:
            writer.write(_wire("GET", "/healthz/live"))
            await _read_response(reader)
        for (_, writer), wire in zip(connections, wires):
            writer.write(wire)
        return [await _read_response(reader) for reader, _ in connections]
    finally:
        for _, writer in connections:
            writer.close()
            await writer.wait_closed()


def spans_by_name(name):
    return [s for s in get_tracer().spans if s.name == name]


class TestTraceparentPropagation:
    def test_client_trace_threads_through_request_and_batch(self):
        configure(trace=True)

        async def body():
            app, server = await _start()
            try:
                return await _send(
                    server.port,
                    _wire("POST", "/v1/predict", WORKSHEET, TRACEPARENT),
                )
            finally:
                await server.shutdown()

        status, headers, _ = asyncio.run(body())
        assert status == 200

        # Egress header: same trace, a server-side span id, not ours.
        echoed = headers["traceparent"]
        assert re.fullmatch(rf"00-{TRACE}-[0-9a-f]{{16}}-01", echoed)
        assert SPAN not in echoed

        # serve.request is the tree root: client span is remote parent.
        [request_span] = spans_by_name("serve.request")
        assert request_span.trace_id == TRACE
        assert request_span.remote_parent == SPAN
        assert request_span.parent_id is None

        # The batch slice re-links the shared batch into this trace.
        [slice_span] = spans_by_name("serve.batch_slice")
        assert slice_span.trace_id == TRACE
        assert slice_span.attributes["synthetic"] is True
        [batch_span] = spans_by_name("serve.batch")
        assert slice_span.attributes["batch_span"] == batch_span.span_id
        assert TRACE in batch_span.attributes["trace_ids"]

    def test_coalesced_requests_keep_their_own_trace_ids(self):
        configure(trace=True)
        other = "aaaabbbbccccddddeeeeffff00001111"

        async def body():
            app, server = await _start()
            try:
                return await _send_together(
                    server.port,
                    _wire("POST", "/v1/predict", WORKSHEET, TRACEPARENT),
                    _wire(
                        "POST", "/v1/predict", WORKSHEET,
                        f"00-{other}-{SPAN}-01",
                    ),
                )
            finally:
                await server.shutdown()

        (s1, h1, b1), (s2, h2, b2) = asyncio.run(body())
        assert s1 == s2 == 200
        assert json.loads(b1)["batch_size"] == 2, "requests did not coalesce"
        # Each response keeps its own trace id despite the shared batch.
        assert TRACE in h1["traceparent"]
        assert other in h2["traceparent"]
        [batch_span] = spans_by_name("serve.batch")
        assert set(batch_span.attributes["trace_ids"]) == {TRACE, other}

    def test_explore_chunks_join_the_client_trace(self):
        configure(trace=True)
        payload = {
            "study": "pdf1d",
            "axes": {"throughput_proc": [50.0, 100.0, 150.0, 200.0]},
            "top": 2,
        }

        async def body():
            app, server = await _start()
            try:
                return await _send(
                    server.port,
                    _wire("POST", "/v1/explore", payload, TRACEPARENT),
                )
            finally:
                await server.shutdown()

        status, headers, raw = asyncio.run(body())
        assert status == 200, raw
        assert TRACE in headers["traceparent"]
        chunk_spans = spans_by_name("explore.chunk")
        assert chunk_spans, "exploration recorded no chunk spans"
        assert all(span.trace_id == TRACE for span in chunk_spans)

    def test_malformed_traceparent_starts_fresh_trace(self):
        configure(trace=True)

        async def body():
            app, server = await _start()
            try:
                return await _send(
                    server.port,
                    _wire("GET", "/healthz", traceparent="00-bogus-ids-01"),
                )
            finally:
                await server.shutdown()

        status, headers, _ = asyncio.run(body())
        assert status == 200
        # A fresh valid trace, not the malformed input, not an error.
        assert re.fullmatch(
            r"00-[0-9a-f]{32}-[0-9a-f]{16}-01", headers["traceparent"]
        )

    def test_no_traceparent_and_no_tracer_skips_identity(self):
        async def body():
            app, server = await _start()
            try:
                return await _send(server.port, _wire("GET", "/healthz"))
            finally:
                await server.shutdown()

        status, headers, _ = asyncio.run(body())
        assert status == 200
        # Telemetry off and client not tracing: no minted ids leak out.
        assert "traceparent" not in headers
        assert get_tracer().spans == []


class TestRetryAfterColdStart:
    def test_integer_header_before_any_batch_completes(self):
        """The EWMA seeds at a nonzero value, so the very first 429 —
        before a single batch has ever run — must still carry a whole
        non-negative second count (a fractional or negative Retry-After
        is invalid HTTP)."""

        async def body():
            # One-slot queue: two requests that reach the batcher in one
            # loop step fill it, so the second is rejected while
            # batch-latency statistics are still virgin.
            app, server = await _start(max_pending=1)
            try:
                predict = _wire("POST", "/v1/predict", WORKSHEET)
                return await _send_together(server.port, predict, predict)
            finally:
                await server.shutdown()

        responses = sorted(asyncio.run(body()), key=lambda r: r[0])
        assert [status for status, _, _ in responses] == [200, 429]
        _, headers, _ = responses[1]
        value = headers["retry-after"]
        assert re.fullmatch(r"\d+", value), f"not a whole second: {value!r}"
        assert int(value) >= 1
