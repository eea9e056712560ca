"""asyncio transport for the prediction service.

:class:`RATServer` binds an :class:`~repro.serve.app.RATApp` to a TCP
listener with ``asyncio.start_server`` and speaks the HTTP/1.1 subset
implemented by :mod:`repro.serve.protocol`: persistent connections,
``Content-Length`` bodies, one request at a time per connection.

Graceful drain: on :meth:`RATServer.drain` (wired to SIGTERM/SIGINT by
:func:`serve`) the listener closes, the app stops admitting new
predictions, and every connection stops reading.  A request fully
received before the drain gets its response with ``Connection: close``;
a connection idling between requests, or still receiving one, is
closed.  The micro-batcher finishes everything already queued before
the process exits.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import sys

from ..errors import ParameterError
from ..obs import get_metrics
from ..obs.log import configure_logging, event, get_logger
from .app import RATApp
from .protocol import (
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    ProtocolError,
    Request,
    body_length,
    error_body,
    format_response,
    parse_head,
)

__all__ = ["RATServer", "serve"]

_log = get_logger("serve")


class RATServer:
    """One listening socket serving a :class:`RATApp`."""

    def __init__(
        self,
        app: RATApp,
        *,
        host: str = "127.0.0.1",
        port: int = 8321,
        drain_timeout_s: float = 10.0,
        sock=None,
    ) -> None:
        self.app = app
        self.host = host
        self.port = int(port)
        self.drain_timeout_s = float(drain_timeout_s)
        #: A pre-created listening socket (cluster mode: each shard's
        #: ``SO_REUSEPORT`` socket, or a parent-bound fd shared across
        #: shards).  When set, ``host``/``port`` are informational.
        self.sock = sock
        self._server: asyncio.Server | None = None
        #: Open connections: handler task -> its (reader, writer).
        self._clients: dict[
            asyncio.Task, tuple[asyncio.StreamReader, asyncio.StreamWriter]
        ] = {}
        self._draining = asyncio.Event()

    # ---- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the app (port 0 = ephemeral)."""
        if self._server is not None:
            raise ParameterError("server is already running")
        await self.app.startup()
        self._draining = asyncio.Event()
        if self.sock is not None:
            self._server = await asyncio.start_server(
                self._serve_connection, sock=self.sock
            )
        else:
            self._server = await asyncio.start_server(
                self._serve_connection, self.host, self.port
            )
        # With port 0 the kernel picks; expose the bound port so callers
        # (CLI banner, CI smoke job, tests) can discover it.
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]

    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def draining(self) -> bool:
        """True once graceful shutdown has begun."""
        return self._draining.is_set()

    def drain(self) -> None:
        """Begin graceful shutdown; :meth:`run` then unblocks."""
        self._draining.set()

    async def run(self) -> None:
        """Serve until :meth:`drain` is called, then shut down cleanly."""
        if self._server is None:
            await self.start()
        await self._draining.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Stop the listener, drain in-flight work, stop the batcher."""
        self._draining.set()
        if self._server is not None:
            # No wait_closed(): from Python 3.12.1 it also waits for every
            # connection to drop, and an idle one drops only once stopped
            # below.  The handler wait at the end covers the connections.
            self._server.close()
            self._server = None
        self.app.draining = True
        for reader, writer in self._clients.values():
            _stop_reading(reader, writer)
        await self.app.wait_idle(self.drain_timeout_s)
        await self.app.shutdown(drain=True)
        # Let the handlers finish: one still running when the event loop
        # stops is cancelled, which asyncio reports as an error.
        if self._clients:
            await asyncio.wait(self._clients, timeout=self.drain_timeout_s)

    # ---- connection handling -----------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._clients[task] = reader, writer
        get_metrics().gauge("serve.connections").set(len(self._clients))
        if self._draining.is_set():
            _stop_reading(reader, writer)  # accepted as the drain began
        try:
            await self._connection_loop(reader, writer)
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            TimeoutError,
        ):
            pass  # client went away mid-request; nothing to answer
        finally:
            del self._clients[task]
            get_metrics().gauge("serve.connections").set(len(self._clients))
            with contextlib.suppress(ConnectionError):
                writer.close()
                await writer.wait_closed()

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except asyncio.IncompleteReadError as exc:
                if not exc.partial:
                    return  # clean EOF between requests
                raise
            except asyncio.LimitOverrunError:
                await self._respond(
                    writer,
                    error_body("request head too large", 431),
                    keep_alive=False,
                )
                return
            if len(head) > MAX_HEAD_BYTES:
                await self._respond(
                    writer,
                    error_body("request head too large", 431),
                    keep_alive=False,
                )
                return
            try:
                method, path, version, headers, query = parse_head(head[:-4])
                n = body_length(headers, self.app.max_body_bytes)
                body = await reader.readexactly(n) if n else b""
            except ProtocolError as exc:
                # Framing is unreliable after a protocol error (an
                # unread body would be parsed as the next request line),
                # so always close.
                await self._respond(
                    writer,
                    error_body(str(exc), exc.status),
                    keep_alive=False,
                )
                return
            request = Request(
                method=method,
                path=path,
                headers=headers,
                body=body,
                version=version,
                query=query,
            )
            response = await self.app.handle(request)
            keep_alive = request.keep_alive and not self._draining.is_set()
            await self._respond(writer, response, keep_alive=keep_alive)
            if not keep_alive:
                return

    @staticmethod
    async def _respond(writer, response, *, keep_alive: bool) -> None:
        writer.write(format_response(response, keep_alive=keep_alive))
        await writer.drain()


def _stop_reading(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """End a connection's input at what it has already received.

    A handler waiting on its reader (between requests, or for the rest of
    one) then sees EOF and returns: cleanly between requests, through the
    client-went-away path mid-request.  A handler inside ``app.handle``
    sees it only after answering with ``Connection: close``.  Reading
    stops first: a stream rejects data fed after EOF.
    """
    writer.transport.pause_reading()
    reader.feed_eof()


async def serve(
    *,
    host: str = "127.0.0.1",
    port: int = 8321,
    max_batch_size: int = 64,
    max_pending: int = 1024,
    max_body_bytes: int = MAX_BODY_BYTES,
    max_batch_rows: int = 4096,
    max_explore_points: int = 200_000,
    default_deadline_s: float | None = None,
    drain_timeout_s: float = 10.0,
    quiet: bool = False,
    access_log: str | None = None,
) -> None:
    """Run the service until SIGTERM/SIGINT, then drain and return.

    This is the ``rat serve`` entry point.  The startup banner is a
    stable, parseable line (``rat serve: listening on http://H:P``) so
    scripts launching with ``--port 0`` can discover the bound port.

    ``access_log`` enables the structured JSONL event stream (one
    ``http.access`` line per request, plus batcher/exploration lifecycle
    events) to the given path, or to stderr for ``"-"``.
    """
    access_handler = (
        configure_logging(access_log) if access_log is not None else None
    )
    app = RATApp(
        max_batch_size=max_batch_size,
        max_pending=max_pending,
        max_body_bytes=max_body_bytes,
        max_batch_rows=max_batch_rows,
        max_explore_points=max_explore_points,
        default_deadline_s=default_deadline_s,
    )
    server = RATServer(
        app, host=host, port=port, drain_timeout_s=drain_timeout_s
    )
    await server.start()
    loop = asyncio.get_running_loop()
    registered: list[signal.Signals] = []
    for signame in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signame, server.drain)
            registered.append(signame)
        except (NotImplementedError, RuntimeError):
            pass  # non-Unix loop; rely on KeyboardInterrupt
    if not quiet:
        print(
            f"rat serve: listening on http://{server.host}:{server.port} "
            f"(max_batch={max_batch_size})",
            flush=True,
        )
    event(
        _log, "server.started",
        host=server.host, port=server.port,
        max_batch_size=max_batch_size,
    )
    try:
        await server.run()
    except KeyboardInterrupt:
        await server.shutdown()
    finally:
        for signame in registered:
            loop.remove_signal_handler(signame)
        event(
            _log, "server.drained",
            requests=app.requests,
            predictions=app.batcher.served,
            batches=app.batcher.batches,
        )
        if access_handler is not None:
            access_handler.flush()
    if not quiet:
        print(
            f"rat serve: drained cleanly after {app.requests} requests "
            f"({app.batcher.served} predictions in {app.batcher.batches} "
            "batches)",
            flush=True,
        )
