"""One accepted socket: the keep-alive request/response loop.

A connection owns exactly one :class:`~repro.server.http.parser.RequestParser`
and serves requests strictly in arrival order (pipelined requests queue in
the parser's buffer and are answered in sequence, per RFC 9112 §9.3.2).
The loop embodies the server's robustness rules:

* **Backpressure** — the connection performs no socket read while a request
  is being dispatched: admission waits on the dispatcher's in-flight
  semaphore, and only after the response is on the wire does the loop go
  back to the socket.  A flood on one connection therefore queues in the
  kernel, not in the process.
* **Timeouts** — an *idle* keep-alive connection (nothing half-parsed) is
  closed quietly after ``idle_timeout``; a connection that has started a
  request gets one ``read_timeout`` budget for the whole request — a
  slowloris trickle of one byte per second exhausts the deadline and gets a
  408, never an open-ended read.  Writes that cannot drain within
  ``write_timeout`` abort the connection.
* **Streaming** — a response body deferred by the application
  (``channel.pending_stream``) is drained here: each piece crosses
  ``channel.write`` (the taint boundary) and becomes one chunked
  transfer-encoding frame.  Frames are batched in a connection-level
  output buffer that is flushed wherever the coroutine may suspend, so an
  async stream still delivers each frame before waiting for the next.  A
  policy violation mid-stream truncates the chunked body — the terminating
  frame is never sent, so the client knows the response is incomplete —
  and closes the connection.
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

_READ_SIZE = 65536
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


class _ClientGone(Exception):
    """The peer vanished mid-request; there is nobody to answer."""


class HTTPConnection:
    """Serves one accepted socket until close, error, or drain."""

    def __init__(
        self, server, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ):
        self.server = server
        self.reader = reader
        self.writer = writer
        self.parser = RequestParser(server.limits)
        peername = writer.get_extra_info("peername")
        self.remote_addr = peername[0] if peername else "?"
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

    # -- lifecycle ---------------------------------------------------------------

    async def serve(self) -> None:
        try:
            while True:
                parsed = await self._read_request()
                if parsed is None:
                    return
                self.busy = True
                try:
                    keep_alive = await self._serve_one(parsed)
                finally:
                    self.busy = False
                self.requests_served += 1
                if not keep_alive or self.server.draining:
                    return
        except ParseError as exc:
            await self._send_simple(exc.status, str(exc))
        except _ClientGone:
            pass
        except (ConnectionError, asyncio.TimeoutError, asyncio.IncompleteReadError):
            pass
        finally:
            await self._shutdown()

    async def _shutdown(self) -> None:
        try:
            await self._flush()
        except (ConnectionError, asyncio.TimeoutError, OSError, _ClientGone):
            pass
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    def close_if_idle(self) -> None:
        """Drain support: force-close unless a request is in flight (a busy
        connection finishes its response first; the loop then exits because
        the server is draining)."""
        if not self.busy:
            transport = self.writer.transport
            if transport is not None:
                transport.abort()

    # -- reading -----------------------------------------------------------------

    async def _read_request(self) -> Optional[ParsedRequest]:
        """The next complete request off the socket, or ``None`` for a clean
        close (EOF or idle timeout between requests).

        The read deadline is per *request*, armed at its first byte: a
        client may keep an idle connection for ``idle_timeout``, but once a
        request line starts, the whole request must arrive within
        ``read_timeout`` — the slowloris counter-measure.
        """
        loop = asyncio.get_running_loop()
        deadline: Optional[float] = None
        while True:
            request = self.parser.next_request()
            if request is not None:
                return request
            # About to wait on the peer: everything buffered must be on the
            # wire first.  Pipelined requests skip this entirely (their
            # request is already parsed above), so a pipelined batch is
            # answered in one coalesced write.
            await self._flush()
            if self.parser.idle:
                timeout: float = self.server.idle_timeout
            else:
                if deadline is None:
                    deadline = loop.time() + self.server.read_timeout
                timeout = deadline - loop.time()
                if timeout <= 0:
                    await self._send_simple(408, "request read timed out")
                    return None
            try:
                data = await asyncio.wait_for(self.reader.read(_READ_SIZE), timeout)
            except asyncio.TimeoutError:
                if self.parser.idle:
                    return None
                await self._send_simple(408, "request read timed out")
                return None
            if not data:
                if self.parser.idle:
                    return None
                raise _ClientGone()
            self.parser.feed(data)

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
        except (ConnectionError, _ClientGone):
            raise
        except asyncio.CancelledError:
            raise
        except Exception:  # noqa: BLE001 - a handler bug must not kill the server
            await self._send_simple(500, "internal server error")
            return False

    # -- writing -----------------------------------------------------------------

    async def _write_response(
        self, parsed: ParsedRequest, channel, keep_alive: bool
    ) -> bool:
        head_only = parsed.method == "HEAD"
        pending = channel.pending_stream
        if pending is not None:
            return await self._write_streaming(parsed, channel, keep_alive, head_only)
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

    async def _write_streaming(
        self, parsed: ParsedRequest, channel, keep_alive: bool, head_only: bool
    ) -> bool:
        headers = list(channel.headers)
        headers.append(("Transfer-Encoding", "chunked"))
        self._start_response(channel.status, headers, parsed, keep_alive)
        if head_only:
            # Mirror the GET headers but move no data: the stream is never
            # drained, so nothing crosses the taint boundary either.
            self._out += b"0\r\n\r\n"
            await self._flush()
            return keep_alive
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
        except PolicyViolation:
            # Headers are gone; the only honest move is to truncate the
            # chunked body (no terminating frame) and drop the connection.
            # Frames already buffered passed their own checks and still
            # leave; the disallowed piece never crossed channel.write.
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
        except (ConnectionError, asyncio.TimeoutError, OSError):
            pass

    async def _flush(self) -> None:
        """Hand buffered output to the transport in one write.

        The timeout machinery (``wait_for`` spawns a task and a timer per
        call) is engaged only when the transport reports unsent backlog —
        the common case, an empty kernel-accepted buffer, costs one write.
        """
        if self._out:
            self.writer.write(bytes(self._out))
            del self._out[:]
        transport = self.writer.transport
        if transport is not None and transport.get_write_buffer_size() == 0:
            return
        await self._drain()

    async def _drain(self) -> None:
        try:
            await asyncio.wait_for(self.writer.drain(), self.server.write_timeout)
        except asyncio.TimeoutError:
            transport = self.writer.transport
            if transport is not None:
                transport.abort()
            raise _ClientGone() from None

    def __repr__(self) -> str:
        return (
            f"HTTPConnection({self.remote_addr}, served={self.requests_served}, "
            f"busy={self.busy})"
        )
