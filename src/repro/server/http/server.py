"""The asyncio HTTP/1.1 socket server in front of ``AsyncDispatcher``.

:class:`HTTPServer` is the network face of the runtime: it binds a real
listening socket, speaks HTTP/1.1 with keep-alive and pipelining (via
:class:`~repro.server.http.connection.HTTPConnection`), and funnels every
parsed request through its own
:class:`~repro.server.async_dispatcher.AsyncDispatcher` — so the
dispatcher's bounded in-flight semaphore is the *same* backpressure that
stops a connection from being read while its request is queued.  Concurrent
connections are additionally bounded by ``max_connections`` (excess accepted
sockets wait unread) and by the listener's ``backlog``.

The listener is ``loop.create_server`` with one
:class:`~repro.server.http.connection.HTTPConnection` protocol per accepted
socket; each connection gets one serving task, made when the transport
connects, and no other task for as long as it lives.

Graceful shutdown mirrors ``AsyncDispatcher.aclose()``: :meth:`aclose`
stops accepting, force-closes idle keep-alive connections, lets busy ones
finish the response they are writing (their loop then exits because the
server is draining), waits until every connection's transport has closed,
and finally closes the dispatcher it owns.

:class:`ServerHandle` runs the whole thing on a background thread for
synchronous callers (examples, benchmarks, the Table 4 harness)::

    with Resin(env).serve(app) as handle:        # ServerHandle
        http.client.HTTPConnection("127.0.0.1", handle.port) ...
"""

from __future__ import annotations

import asyncio
import threading
from functools import partial
from typing import Optional, Set
from urllib.parse import parse_qsl

from ...web.request import Request
from .connection import HTTPConnection
from .parser import ParsedRequest, ParserLimits

__all__ = ["HTTPServer", "ServerHandle"]


class HTTPServer:
    """One listening socket serving a routed application.

    ``user_header`` (off by default) names a request header whose value is
    adopted as the authenticated user — for trusted harnesses only (the
    Table 4 socket front end, benchmarks); real deployments resolve the
    principal with a :class:`~repro.web.routing.SessionMiddleware` from the
    session cookie, exactly as the in-process front ends do.
    """

    def __init__(
        self,
        app,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 4,
        max_in_flight: Optional[int] = None,
        limits: Optional[ParserLimits] = None,
        idle_timeout: float = 30.0,
        read_timeout: float = 10.0,
        write_timeout: float = 10.0,
        max_connections: int = 128,
        backlog: int = 100,
        user_header: Optional[str] = None,
    ):
        from ..async_dispatcher import AsyncDispatcher

        self.app = app
        self.env = app.env
        self.host = host
        self._requested_port = int(port)
        self.limits = limits or ParserLimits()
        self.idle_timeout = float(idle_timeout)
        self.read_timeout = float(read_timeout)
        self.write_timeout = float(write_timeout)
        self.max_connections = int(max_connections)
        self.backlog = int(backlog)
        self.user_header = user_header.lower() if user_header else None
        self.dispatcher = AsyncDispatcher(
            app, workers=workers, max_in_flight=max_in_flight
        )
        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_gate: Optional[asyncio.Semaphore] = None
        self._connections: Set[HTTPConnection] = set()
        self._conn_tasks: Set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------------

    async def bind(self) -> "HTTPServer":
        """Bind the listening socket (port 0 picks a free port)."""
        if self._server is not None:
            raise RuntimeError("server is already bound")
        self._conn_gate = asyncio.Semaphore(self.max_connections)
        self._server = await asyncio.get_running_loop().create_server(
            partial(HTTPConnection, self),
            self.host,
            self._requested_port,
            backlog=self.backlog,
        )
        return self

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not bound")
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.bind()
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Graceful drain: stop accepting, finish in-flight responses,
        close idle keep-alive connections, shut the dispatcher."""
        self.draining = True
        if self._server is not None:
            self._server.close()
        for connection in list(self._connections):
            connection.close_if_idle()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        if self._server is not None:
            # After the connections: from Python 3.12 this also waits for
            # every accepted connection to close.
            await self._server.wait_closed()
        await self.dispatcher.aclose()

    async def __aenter__(self) -> "HTTPServer":
        return await self.bind()

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.aclose()
        return False

    # -- connections -------------------------------------------------------------

    def _connection_made(self, connection: HTTPConnection) -> None:
        """Start the one task that serves a freshly connected socket."""
        task = asyncio.get_running_loop().create_task(self._serve(connection))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _serve(self, connection: HTTPConnection) -> None:
        async with self._conn_gate:
            self._connections.add(connection)
            try:
                await connection.serve()  # returns at once when draining
            finally:
                self._connections.discard(connection)

    # -- request construction ----------------------------------------------------

    def build_request(self, parsed: ParsedRequest, remote_addr: str) -> Request:
        """Translate one wire request into the application-level
        :class:`~repro.web.request.Request`.

        Query parameters and an ``application/x-www-form-urlencoded`` body
        land in ``params`` (form fields shadow query fields of the same
        name); other body types stay raw on ``request.body``.  The request
        is marked as stream-capable, so handlers returning generator bodies
        stream back as chunked transfer-encoding.
        """
        params = dict(parsed.query)
        body = parsed.body
        content_type = (parsed.header("content-type") or "").split(";")[0].strip()
        if body and content_type == "application/x-www-form-urlencoded":
            try:
                decoded = body.decode("utf-8")
            except UnicodeDecodeError as exc:
                from .parser import ParseError

                raise ParseError(400, "form body is not valid UTF-8") from exc
            params.update(parse_qsl(decoded, keep_blank_values=True))
        user = None
        if self.user_header is not None:
            user = parsed.header(self.user_header)
        request = Request(
            parsed.path,
            method=parsed.method,
            params=params,
            cookies=parsed.cookies,
            user=user,
            remote_addr=remote_addr,
        )
        request.body = body
        request.stream_consumer = True
        return request

    def __repr__(self) -> str:
        state = "draining" if self.draining else (
            "bound" if self._server is not None else "unbound")
        return (
            f"HTTPServer({getattr(self.app, 'name', self.app)!r}, "
            f"{self.host}:{self._requested_port or '?'}, {state}, "
            f"connections={len(self._connections)})"
        )


class ServerHandle:
    """A bound :class:`HTTPServer` running on its own event-loop thread.

    For synchronous callers: :meth:`start` returns once the socket is
    listening (raising whatever ``bind`` raised), :meth:`close` drains and
    joins.  Usable as a context manager; ``handle.port`` / ``handle.url``
    address the live socket.
    """

    def __init__(self, server: HTTPServer):
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None
        self.port: Optional[int] = None

    @property
    def url(self) -> str:
        return f"http://{self.server.host}:{self.port}"

    def start(self) -> "ServerHandle":
        if self._thread is not None:
            raise RuntimeError("server handle already started")
        self._thread = threading.Thread(
            target=self._run, name="resin-http-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            self._thread.join()
            raise self._error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - surfaced via start()
            self._error = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.bind()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self.port = self.server.port
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await self.server.aclose()

    def close(self) -> None:
        """Drain the server and join its thread.  Idempotent."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # loop already gone
                pass
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        alive = self._thread is not None and self._thread.is_alive()
        return f"ServerHandle(port={self.port}, alive={alive})"
