"""The unified ``Response`` object.

Handlers used to mutate their :class:`~repro.channels.httpout.HTTPOutputChannel`
directly (``response.set_status(...)``, ``response.write(...)``).  That still
works — the channel *is* the RESIN boundary — but a handler can now instead
*return* a :class:`Response`: a plain value describing status, headers and
body, which the application applies to the request's channel afterwards.

The application of a ``Response`` is where the data crosses the boundary:
every body chunk goes through ``channel.write`` (and therefore through the
channel's filter chain and every chunk's policies), and every header goes
through ``channel.add_header``.  Building a ``Response`` never checks
anything; a handler can assemble a page of data it is not allowed to
disclose and the assertion still fires — at apply time, inside the
application's violation handling.

A body chunk may also be a *stream*: a generator (or any iterable) or an
``async`` generator.  Streams are consumed lazily and **each produced piece
crosses the filter chain on its own** — a ten-thousand-row export is ten
thousand boundary checks, and the first disallowed row stops the stream
mid-flight.  Over the socket server a streamed body leaves the process as
chunked transfer-encoding, piece by piece; in-process front ends drain it
in the one ``await Response.apply``.  Headers are an ordered multi-map:
repeated names (``Set-Cookie``, ``Allow``) stay repeated all the way to the
wire.

:func:`settle` is where a request may really suspend: an ``async``
generator body here, and a coroutine handler's result in
:class:`~repro.web.app.WebApplication`.  On a thread whose event loop is
running it awaits; on a plain thread it runs the coroutine on a private
loop, which is the only place the request pipeline starts one.
"""

from __future__ import annotations

import asyncio
from typing import Any, AsyncIterator, Coroutine, Iterable, List, Optional, Tuple


async def settle(coro: Coroutine) -> Any:
    """``await coro`` when an event loop is running on this thread;
    otherwise run it to completion with ``asyncio.run`` on a private loop."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(coro)
    return await coro


async def _drain(channel, source: AsyncIterator) -> None:
    async for piece in source:
        channel.write(piece)


def is_stream(chunk: Any) -> bool:
    """True when ``chunk`` is a lazily-consumed body source (a generator,
    any non-string iterable, or an async iterable) rather than data."""
    if isinstance(chunk, (str, bytes)):
        return False
    return hasattr(chunk, "__aiter__") or hasattr(chunk, "__iter__")


class Response:
    """A handler's description of one HTTP response.

    Fluent: ``Response("hello").set_status(201).header("X-Kind", "demo")``.
    A plain string returned from a handler is shorthand for
    ``Response(body)``; a generator (or ``async`` generator) body streams.
    """

    def __init__(
        self,
        body: Any = None,
        status: int = 200,
        headers: Optional[Iterable[Tuple[str, Any]]] = None,
    ):
        self.status = int(status)
        self.headers: List[Tuple[str, Any]] = list(headers or [])
        self.chunks: List[Any] = []
        if body is not None:
            self.chunks.append(body)

    # -- building -----------------------------------------------------------------

    def write(self, data: Any) -> "Response":
        """Append a body chunk (policies on ``data`` are preserved — they
        are checked when the response is applied to the channel)."""
        self.chunks.append(data)
        return self

    def stream(self, source: Any) -> "Response":
        """Append a lazily-consumed body source — a generator, iterable, or
        ``async`` generator.  Every piece it yields crosses the channel's
        filter chain individually when the body is drained."""
        if not is_stream(source):
            raise TypeError(
                f"stream() wants an iterable or async iterable, got {source!r}; "
                "use write() for plain data"
            )
        self.chunks.append(source)
        return self

    def set_status(self, status: int) -> "Response":
        self.status = int(status)
        return self

    def header(self, name: str, value: Any) -> "Response":
        """Add one header line.  Repeating a name keeps *both* lines —
        headers are a multi-map, and the wire format emits repeated lines."""
        self.headers.append((name, value))
        return self

    @classmethod
    def redirect(cls, location: str, status: int = 302) -> "Response":
        """A redirect response; the ``Location`` header crosses the filter
        chain like any other header (response-splitting stays checked)."""
        return cls(status=status, headers=[("Location", location)])

    # -- crossing the boundary ----------------------------------------------------

    def has_stream(self) -> bool:
        """Whether any body chunk is lazy (a stream)."""
        return any(is_stream(chunk) for chunk in self.chunks)

    def apply_headers(self, channel) -> None:
        """Emit status and headers through ``channel`` (each header value
        traverses the filter chain; repeated names stay repeated)."""
        channel.set_status(self.status)
        for name, value in self.headers:
            channel.add_header(name, value)

    async def apply(self, channel) -> None:
        """Emit this response through ``channel`` — the point where status,
        headers and every body chunk actually cross the HTTP boundary.

        Stream chunks are drained here, piece by piece; an async stream goes
        through :func:`settle` (awaited on a running loop, otherwise drained
        on a private one).
        """
        self.apply_headers(channel)
        for chunk in self.chunks:
            if not is_stream(chunk):
                channel.write(chunk)
            elif hasattr(chunk, "__aiter__"):
                await settle(_drain(channel, chunk))
            else:
                for piece in chunk:
                    channel.write(piece)

    def __repr__(self) -> str:
        streams = sum(1 for chunk in self.chunks if is_stream(chunk))
        return (
            f"Response(status={self.status}, headers={len(self.headers)}, "
            f"chunks={len(self.chunks)}, streams={streams})"
        )
