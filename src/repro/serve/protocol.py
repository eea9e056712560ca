"""Minimal HTTP/1.1 wire helpers for the prediction service.

The serving layer is stdlib-only, so this module implements the small
slice of HTTP the service needs — request-head parsing and response
formatting — as pure functions over ``bytes``, independent of sockets.
That keeps the parser unit-testable without an event loop and lets the
benchmark drive the application layer directly.

Scope (deliberate): ``Content-Length`` bodies only (no chunked
transfer-encoding), no multipart, no compression.  Requests are parsed
permissively where harmless (header whitespace, case) and rejected with
:class:`ProtocolError` where ambiguity could corrupt framing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ServeError

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEAD_BYTES",
    "ProtocolError",
    "Request",
    "Response",
    "parse_head",
    "format_response",
    "json_response",
    "error_body",
]

#: Upper bound on the request line + headers block; a head that exceeds
#: this is rejected with 431 before any body is read.
MAX_HEAD_BYTES = 32768

#: Default request-body limit (``max_body_bytes``); a longer body gets
#: 413 before it is read.  2 MiB holds a ``/v1/batch`` at its default
#: 4,096-row limit of the registered case studies' worksheets
#: (262-297 bytes each, 1.07-1.22 MB in all).
MAX_BODY_BYTES = 2 << 20

#: Reason phrases for the status codes the service emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(ServeError):
    """The request violates HTTP framing; carries the response status."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = int(status)


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request (head + body)."""

    method: str
    path: str
    headers: Mapping[str, str]
    body: bytes = b""
    version: str = "HTTP/1.1"
    query: str = ""

    def json(self) -> object:
        """Decode the body as JSON (raises ProtocolError on bad input)."""
        if not self.body:
            raise ProtocolError("request body must be a JSON document")
        try:
            return json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"malformed JSON body: {exc}") from exc

    @property
    def keep_alive(self) -> bool:
        """Whether the client expects the connection to stay open."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


@dataclass(frozen=True)
class Response:
    """One HTTP response the application hands back to the transport."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: tuple[tuple[str, str], ...] = field(default=())


def parse_head(head: bytes) -> tuple[str, str, str, dict[str, str], str]:
    """Parse a request head (everything through ``\\r\\n\\r\\n``).

    Returns ``(method, path, version, headers, query)`` with header
    names lower-cased.  The query string is split off the path and
    returned raw (without the ``?``); no endpoint reads it.
    """
    lines = head.split(b"\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise ProtocolError(f"malformed request line {lines[0][:80]!r}")
    method_b, target, version_b = parts
    try:
        method = method_b.decode("ascii")
        path, _, query = target.decode("ascii").partition("?")
        version = version_b.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ProtocolError("request line is not ASCII") from exc
    if not version.startswith("HTTP/"):
        raise ProtocolError(f"unsupported protocol {version!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(b":")
        if not separator:
            raise ProtocolError(f"malformed header line {line[:80]!r}")
        try:
            headers[name.strip().decode("ascii").lower()] = (
                value.strip().decode("latin-1")
            )
        except UnicodeDecodeError as exc:
            raise ProtocolError("header name is not ASCII") from exc
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise ProtocolError("chunked transfer-encoding not supported", 501)
    return method, path, version, headers, query


def body_length(headers: Mapping[str, str], max_body_bytes: int) -> int:
    """Validate and return the declared body length.

    A missing ``Content-Length`` means an empty body; a malformed one is
    a 400, an oversized one a 413 — *before* the body is read, so a
    client cannot make the server buffer an arbitrarily large payload.
    """
    raw = headers.get("content-length")
    if raw is None:
        return 0
    try:
        n = int(raw)
    except ValueError:
        raise ProtocolError(f"malformed Content-Length {raw!r}") from None
    if n < 0:
        raise ProtocolError(f"negative Content-Length {n}")
    if n > max_body_bytes:
        raise ProtocolError(
            f"request body of {n} bytes exceeds the {max_body_bytes}-byte "
            "limit",
            413,
        )
    return n


def format_response(response: Response, *, keep_alive: bool = True) -> bytes:
    """Serialise a :class:`Response` to wire bytes."""
    reason = _REASONS.get(response.status, "Unknown")
    extra = "".join(
        f"{name}: {value}\r\n" for name, value in response.headers
    )
    head = (
        f"HTTP/1.1 {response.status} {reason}\r\n"
        f"Content-Type: {response.content_type}\r\n"
        f"Content-Length: {len(response.body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"{extra}\r\n"
    )
    return head.encode("latin-1") + response.body


def json_response(
    payload: object,
    status: int = 200,
    headers: tuple[tuple[str, str], ...] = (),
) -> Response:
    """A JSON-bodied :class:`Response` for a python payload."""
    return Response(
        status=status,
        body=json.dumps(payload, separators=(",", ":")).encode("utf-8"),
        headers=headers,
    )


def error_body(message: str, status: int) -> Response:
    """The service's uniform JSON error envelope."""
    return json_response({"error": message, "status": status}, status)
