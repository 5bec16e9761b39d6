"""The HTTP/1.1 socket server subsystem.

The real network boundary in front of
:class:`~repro.server.async_dispatcher.AsyncDispatcher`:

* :mod:`~repro.server.http.parser` — incremental request parsing with hard
  limits (400/413/431) and smuggling-hostile framing rules;
* :mod:`~repro.server.http.connection` — one ``asyncio.Protocol`` per
  socket and its keep-alive task: pipelining, per-request read deadlines
  (slowloris → 408), write timeouts, half-close, chunked streaming with a
  taint check per emitted frame;
* :mod:`~repro.server.http.server` — :class:`HTTPServer` (bind / serve /
  drain on an event loop, through ``loop.create_server``) and
  :class:`ServerHandle` (the same server on a background thread for
  synchronous callers).

The fluent entry points are :meth:`repro.runtime_api.Resin.serve` and
:meth:`~repro.runtime_api.Resin.serve_async`.
"""

from .parser import ParsedRequest, ParseError, ParserLimits, RequestParser
from .server import HTTPServer, ServerHandle

__all__ = [
    "HTTPServer",
    "ParsedRequest",
    "ParseError",
    "ParserLimits",
    "RequestParser",
    "ServerHandle",
]
