"""HTTP wire-format tests: parsing, framing limits, response bytes."""

import json

import pytest

from repro.serve.protocol import (
    ProtocolError,
    Request,
    Response,
    body_length,
    error_body,
    format_response,
    json_response,
    parse_head,
)


class TestParseHead:
    def test_basic_request_line(self):
        method, path, version, headers, query = parse_head(
            b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 10"
        )
        assert method == "POST"
        assert path == "/v1/predict"
        assert version == "HTTP/1.1"
        assert headers == {"host": "x", "content-length": "10"}
        assert query == ""

    def test_header_names_lowercased_values_stripped(self):
        *_, headers, _ = parse_head(
            b"GET / HTTP/1.1\r\nX-Custom-HEADER:   spaced out  "
        )
        assert headers == {"x-custom-header": "spaced out"}

    def test_query_string_split_from_path(self):
        _, path, _, _, query = parse_head(b"GET /metrics?a=1&b=2 HTTP/1.1")
        assert path == "/metrics"
        assert query == "a=1&b=2"

    def test_malformed_request_line(self):
        with pytest.raises(ProtocolError):
            parse_head(b"GET /healthz")  # no version

    def test_non_http_version(self):
        with pytest.raises(ProtocolError):
            parse_head(b"GET / SPDY/3")

    def test_malformed_header_line(self):
        with pytest.raises(ProtocolError):
            parse_head(b"GET / HTTP/1.1\r\nno-colon-here")

    def test_chunked_rejected_with_501(self):
        with pytest.raises(ProtocolError) as info:
            parse_head(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked")
        assert info.value.status == 501


class TestBodyLength:
    def test_absent_means_empty(self):
        assert body_length({}, 100) == 0

    def test_declared_length(self):
        assert body_length({"content-length": "42"}, 100) == 42

    def test_malformed_is_400(self):
        with pytest.raises(ProtocolError) as info:
            body_length({"content-length": "ten"}, 100)
        assert info.value.status == 400

    def test_negative_is_400(self):
        with pytest.raises(ProtocolError):
            body_length({"content-length": "-1"}, 100)

    def test_oversized_is_413(self):
        with pytest.raises(ProtocolError) as info:
            body_length({"content-length": "101"}, 100)
        assert info.value.status == 413


class TestRequest:
    def test_json_body(self):
        request = Request("POST", "/", {}, body=b'{"a": 1}')
        assert request.json() == {"a": 1}

    def test_empty_body_rejected(self):
        with pytest.raises(ProtocolError):
            Request("POST", "/", {}).json()

    def test_malformed_json_rejected(self):
        with pytest.raises(ProtocolError):
            Request("POST", "/", {}, body=b"{nope").json()

    def test_keep_alive_default_http11(self):
        assert Request("GET", "/", {}).keep_alive
        assert not Request(
            "GET", "/", {"connection": "close"}
        ).keep_alive

    def test_keep_alive_http10_needs_opt_in(self):
        assert not Request("GET", "/", {}, version="HTTP/1.0").keep_alive
        assert Request(
            "GET", "/", {"connection": "keep-alive"}, version="HTTP/1.0"
        ).keep_alive


class TestResponses:
    def test_format_response_framing(self):
        wire = format_response(Response(body=b'{"x": 1}'))
        head, _, body = wire.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 8\r\n" in head
        assert b"Connection: keep-alive" in head
        assert body == b'{"x": 1}'

    def test_close_header(self):
        wire = format_response(Response(), keep_alive=False)
        assert b"Connection: close\r\n" in wire

    def test_extra_headers(self):
        wire = format_response(
            Response(status=429, headers=(("Retry-After", "2"),))
        )
        assert b"HTTP/1.1 429 Too Many Requests\r\n" in wire
        assert b"Retry-After: 2\r\n" in wire

    def test_json_response_roundtrip(self):
        response = json_response({"speedup": 10.5}, 200)
        assert json.loads(response.body) == {"speedup": 10.5}

    def test_error_body_envelope(self):
        response = error_body("queue full", 429)
        assert response.status == 429
        assert json.loads(response.body) == {
            "error": "queue full",
            "status": 429,
        }
