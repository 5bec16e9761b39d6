"""One accepted socket: the keep-alive request/response loop.

:class:`HTTPConnection` is an :class:`asyncio.Protocol`: the transport hands
it bytes (``data_received``), a half-close (``eof_received``), a full write
buffer (``pause_writing`` / ``resume_writing``) and the end of the
connection (``connection_lost``).  Each of these callbacks feeds the
connection's one :class:`~repro.server.http.parser.RequestParser` or sets a
flag, then wakes the connection's one serving task if it waits for that
event; the task sleeps on a bare loop future whenever it waits for the
peer.  Every such wait arms exactly one deadline timer, so a keep-alive
request wakes the loop once by its socket and once by the thread that ran
its handler, and allocates no task.

The task serves requests strictly in arrival order (pipelined requests queue
in the parser's buffer and are answered in sequence, per RFC 9112 §9.3.2).
The loop embodies the server's robustness rules:

* **Backpressure** — the connection reads from its socket only while its
  task waits for request bytes.  A read that arrives at any other time
  (while a request is dispatched, while a response waits for the client to
  drain it, while the connection waits for a ``max_connections`` slot) is
  buffered in the parser and pauses reading until the task next waits for
  a request, so the parser holds at most one read beyond its limits.
  Admission waits on the dispatcher's in-flight semaphore, so a flood on
  one connection queues in the kernel, not in the process.
* **Timeouts** — an *idle* keep-alive connection (nothing half-parsed) is
  closed quietly after ``idle_timeout``; a connection that has started a
  request gets one ``read_timeout`` budget for the whole request — a
  slowloris trickle of one byte per second exhausts the deadline and gets a
  408, never an open-ended read.  Output that cannot drain within
  ``write_timeout`` (the transport paused writing) aborts the connection,
  and so does a close whose buffered output cannot drain.
* **Half-close** — a client that shuts down its sending side is still
  answered: the requests it sent are served, then the connection closes.
* **Streaming** — a response body deferred by the application
  (``channel.pending_stream``) is drained here: each piece crosses
  ``channel.write`` (the taint boundary) and becomes one chunked
  transfer-encoding frame.  Frames are batched in a connection-level
  output buffer that is flushed wherever the coroutine may suspend, so an
  async stream still delivers each frame before waiting for the next.  Any
  failure once the head is buffered — a policy violation or an exception
  from the stream — truncates the chunked body (the terminating frame is
  never sent, so the client knows the response is incomplete) and closes
  the connection.  A HEAD request gets the head only; its stream is never
  drained.
"""

from __future__ import annotations

import asyncio
from http import HTTPStatus
from typing import List, Optional, Tuple

from ...core.exceptions import PolicyViolation
from ...core.request_context import enter_request
from ...web.response import is_stream
from .parser import KNOWN_METHODS, ParsedRequest, ParseError, RequestParser

__all__ = ["HTTPConnection"]

#: Buffered output beyond this is pushed to the transport even while a
#: synchronous stream is still producing, bounding memory per connection.
_FLUSH_THRESHOLD = 65536


def _reason(status: int) -> str:
    try:
        return HTTPStatus(status).phrase
    except ValueError:
        return "Unknown"


def _clean(value: object) -> str:
    """Header names/values must never carry CR/LF onto the wire, even if an
    application filter let them through — splitting stops here."""
    return str(value).replace("\r", "").replace("\n", "")


class _ClientGone(ConnectionError):
    """The peer vanished or stopped reading; there is nobody to answer."""


class HTTPConnection(asyncio.Protocol):
    """Serves one accepted socket until close, error, or drain."""

    def __init__(self, server):
        self.server = server
        self.parser = RequestParser(server.limits)
        self.transport: Optional[asyncio.Transport] = None
        self.remote_addr = "?"
        #: True while a request is being dispatched or its response written;
        #: drain only force-closes connections that are *not* busy.
        self.busy = False
        self.requests_served = 0
        #: Outgoing bytes not yet handed to the transport.  Batching here
        #: turns a whole response (status line, headers, every body frame)
        #: into one transport write instead of one syscall per piece; the
        #: buffer is flushed at every point the coroutine may suspend, so a
        #: slow async stream still delivers each frame promptly.
        self._out = bytearray()
        self._loop = asyncio.get_running_loop()
        #: The loop future the serving task sleeps on, while it sleeps.
        self._waiter: Optional[asyncio.Future] = None
        #: True only while the task waits for request bytes: the one time
        #: the connection reads from its socket.
        self._awaiting_request = False
        self._reading_paused = False
        self._writing_paused = False
        self._eof = False  # the peer sends nothing more
        self._lost = False  # the transport has closed

    # -- transport callbacks -----------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        peername = transport.get_extra_info("peername")
        if peername:
            self.remote_addr = peername[0]
        self.server._connection_made(self)

    def data_received(self, data: bytes) -> None:
        try:
            self.parser.feed(data)
        except ParseError:
            pass  # the task is already answering this error and closing
        if self._awaiting_request:
            self._wake()
        elif not self._reading_paused:
            # Nobody parses these bytes until the task next waits for a
            # request: leave whatever follows in the kernel until then.
            self._reading_paused = True
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        self._eof = True
        self._wake()
        return True  # keep the transport open to answer a half-closed peer

    def pause_writing(self) -> None:
        self._writing_paused = True

    def resume_writing(self) -> None:
        self._writing_paused = False
        self._wake()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._eof = self._lost = True
        self._wake()

    def _wake(self, timed_out: bool = False) -> None:
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(timed_out)

    async def _wait(self, deadline: float, for_request: bool = False) -> bool:
        """Sleep until a transport callback wakes the task or the loop clock
        reaches ``deadline``; ``True`` means the deadline passed first.
        Only a wait ``for_request`` reads from the socket."""
        waiter = self._waiter = self._loop.create_future()
        self._awaiting_request = for_request
        timer = self._loop.call_at(deadline, self._wake, True)
        try:
            return await waiter
        finally:
            timer.cancel()
            self._waiter = None
            self._awaiting_request = False

    # -- lifecycle ---------------------------------------------------------------

    async def serve(self) -> None:
        try:
            while not self.server.draining:
                parsed = await self._read_request()
                if parsed is None:
                    return
                self.busy = True
                try:
                    keep_alive = await self._serve_one(parsed)
                finally:
                    self.busy = False
                self.requests_served += 1
                if not keep_alive:
                    return
        except ParseError as exc:
            await self._send_simple(exc.status, str(exc))
        except ConnectionError:
            pass
        finally:
            await self._shutdown()

    async def _shutdown(self) -> None:
        """Flush what is buffered, close, and return once the transport has
        closed; a close that cannot drain within ``write_timeout`` aborts."""
        try:
            await self._flush()
        except ConnectionError:
            pass
        self.transport.close()
        deadline = self._loop.time() + self.server.write_timeout
        while not self._lost:
            if await self._wait(deadline):
                self.transport.abort()

    def close_if_idle(self) -> None:
        """Drain support: force-close unless a request is in flight (a busy
        connection finishes its response first; the loop then exits because
        the server is draining)."""
        if not self.busy:
            self.transport.abort()

    # -- reading -----------------------------------------------------------------

    async def _read_request(self) -> Optional[ParsedRequest]:
        """The next complete request, or ``None`` for a clean close (EOF or
        idle timeout between requests).

        The read deadline is per *request*, armed at its first byte: a
        client may keep an idle connection for ``idle_timeout``, but once a
        request line starts, the whole request must arrive within
        ``read_timeout`` — the slowloris counter-measure.
        """
        deadline: Optional[float] = None
        started = False
        while True:
            request = self.parser.next_request()
            if request is not None:
                return request
            # About to wait on the peer: everything buffered must be on the
            # wire first.  Pipelined requests skip this entirely (their
            # request is already parsed above), so a pipelined batch is
            # answered in one coalesced write.
            await self._flush()
            if self._eof:
                if self.parser.idle:
                    return None
                raise _ClientGone()
            if not started and not self.parser.idle:
                started = True
                deadline = self._loop.time() + self.server.read_timeout
            elif deadline is None:
                deadline = self._loop.time() + self.server.idle_timeout
            if self._reading_paused:
                self._reading_paused = False
                self.transport.resume_reading()
            if await self._wait(deadline, for_request=True):
                if started:
                    await self._send_simple(408, "request read timed out")
                    return None
                if self.parser.idle:
                    return None

    # -- serving -----------------------------------------------------------------

    async def _serve_one(self, parsed: ParsedRequest) -> bool:
        """Answer one parsed request; ``False`` means close the connection.

        The request enters the runtime here, before dispatch, through
        :func:`~repro.core.request_context.enter_request`.  The
        application's own entry (``app.handle`` / ``app.handle_async``)
        reuses that :class:`~repro.core.request_context.RequestContext`, so
        a deferred stream drained after the handler returned still runs
        under the user, HTTP channel and database filters the handler left
        on it.
        """
        keep_alive = parsed.keep_alive and not self.server.draining
        if parsed.method not in KNOWN_METHODS:
            await self._send_simple(
                501, f"method {parsed.method} not implemented", keep_alive=keep_alive
            )
            return keep_alive
        request = self.server.build_request(parsed, self.remote_addr)
        try:
            with enter_request(self.server.env, request):
                channel = await self.server.dispatcher.dispatch(request)
                return await self._write_response(parsed, channel, keep_alive)
        except PolicyViolation as exc:
            await self._send_simple(403, f"Forbidden: {exc}", keep_alive=keep_alive)
            return keep_alive
        except ConnectionError:
            raise
        except Exception:  # noqa: BLE001 - a handler bug must not kill the server
            await self._send_simple(500, "internal server error")
            return False

    # -- writing -----------------------------------------------------------------

    async def _write_response(
        self, parsed: ParsedRequest, channel, keep_alive: bool
    ) -> bool:
        head_only = parsed.method == "HEAD"
        if channel.pending_stream is not None:
            headers = list(channel.headers)
            headers.append(("Transfer-Encoding", "chunked"))
            self._start_response(channel.status, headers, parsed, keep_alive)
            if head_only:
                # The GET headers and no body (RFC 9112 §6.3): the stream is
                # never drained, so nothing crosses the taint boundary.
                return keep_alive
            return await self._write_streaming(channel, keep_alive)
        body = channel.body().encode("utf-8")
        headers = list(channel.headers)
        headers.append(("Content-Length", str(len(body))))
        self._start_response(channel.status, headers, parsed, keep_alive)
        if not head_only:
            self._out += body
        # No flush here: the serve loop flushes before it next waits on the
        # socket (or on shutdown), so pipelined responses coalesce.
        if len(self._out) >= _FLUSH_THRESHOLD:
            await self._flush()
        return keep_alive

    async def _write_streaming(self, channel, keep_alive: bool) -> bool:
        """Drain the deferred body behind an already buffered head."""
        # Eager chunks the handler wrote before streaming began.
        sent = self._buffer_new(channel, 0)
        try:
            for source in channel.pending_stream.chunks:
                if not is_stream(source):
                    channel.write(source)
                    sent = self._buffer_new(channel, sent)
                elif hasattr(source, "__aiter__"):
                    iterator = source.__aiter__()
                    while True:
                        # Flush before the await: frames already cleared
                        # must not sit buffered while the source suspends.
                        await self._flush()
                        try:
                            piece = await iterator.__anext__()
                        except StopAsyncIteration:
                            break
                        channel.write(piece)
                        sent = self._buffer_new(channel, sent)
                else:
                    for piece in source:
                        channel.write(piece)
                        sent = self._buffer_new(channel, sent)
                        if len(self._out) >= _FLUSH_THRESHOLD:
                            await self._flush()
        except ConnectionError:
            raise
        except Exception:  # noqa: BLE001 - a policy violation or a stream bug
            # Headers are gone; the only honest move is to truncate the
            # chunked body (no terminating frame) and drop the connection.
            # Frames already buffered passed their own checks and still
            # leave; a disallowed piece never crossed channel.write.
            await self._flush()
            return False
        self._out += b"0\r\n\r\n"
        if len(self._out) >= _FLUSH_THRESHOLD:
            await self._flush()
        return keep_alive

    def _buffer_new(self, channel, sent: int) -> int:
        """Frame every chunk the channel delivered since index ``sent``."""
        for text in channel.chunks[sent:]:
            data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
            if data:  # a zero-length frame would terminate the body
                # Size line, data and trailing CRLF in one buffer append.
                self._out += b"%x\r\n%s\r\n" % (len(data), data)
        return len(channel.chunks)

    def _start_response(
        self,
        status: int,
        headers: List[Tuple[str, str]],
        parsed: Optional[ParsedRequest],
        keep_alive: bool,
    ) -> None:
        lines = [f"HTTP/1.1 {int(status)} {_reason(int(status))}"]
        for name, value in headers:
            # One line per (name, value) pair: multi-value headers such as
            # Set-Cookie and Allow reach the wire as repeated lines.
            lines.append(f"{_clean(name)}: {_clean(value)}")
        if not keep_alive:
            lines.append("Connection: close")
        elif parsed is not None and parsed.version == "HTTP/1.0":
            lines.append("Connection: keep-alive")
        self._out += ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _send_simple(
        self, status: int, text: str, keep_alive: bool = False
    ) -> None:
        """A minimal server-generated response (parse errors, timeouts,
        uncaught failures).  Fixed server text, so no taint boundary here."""
        try:
            body = (text + "\n").encode("utf-8")
            self._start_response(
                status,
                [
                    ("Content-Type", "text/plain; charset=utf-8"),
                    ("Content-Length", str(len(body))),
                ],
                None,
                keep_alive,
            )
            self._out += body
            await self._flush()
        except ConnectionError:
            pass

    async def _flush(self) -> None:
        """Hand buffered output to the transport in one write.

        The task waits only when the transport has paused writing (its
        buffer is above the high-water mark), and then for at most
        ``write_timeout`` before the connection is aborted.
        """
        if self._lost:
            raise _ClientGone()
        if self._out:
            self.transport.write(bytes(self._out))
            del self._out[:]
        if not self._writing_paused:
            return
        deadline = self._loop.time() + self.server.write_timeout
        while self._writing_paused:
            if self._lost:
                raise _ClientGone()
            if await self._wait(deadline):
                self.transport.abort()
                raise _ClientGone()

    def __repr__(self) -> str:
        return (
            f"HTTPConnection({self.remote_addr}, served={self.requests_served}, "
            f"busy={self.busy})"
        )
