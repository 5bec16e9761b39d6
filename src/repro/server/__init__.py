"""Concurrent request serving.

Two front ends over the same per-request machinery:

* :class:`~repro.server.dispatcher.Dispatcher` runs a
  :class:`~repro.web.app.WebApplication` on a thread pool;
* :class:`~repro.server.async_dispatcher.AsyncDispatcher` serves it from an
  asyncio event loop (bounded in-flight requests, cancellation, graceful
  shutdown), running sync handlers on a pool of worker threads.

Neither binds anything itself: each hands the request to ``app.handle`` /
``app.handle_async``, whose entry
(:func:`~repro.core.request_context.enter_request`) binds the request's own
:class:`~repro.core.request_context.RequestContext` over the shared
environment.  The :mod:`~repro.server.http` package puts a real HTTP/1.1
socket listener (:class:`~repro.server.http.HTTPServer`) in front of the
async dispatcher: keep-alive, pipelining, streaming chunked responses, and
connection-level backpressure tied to the dispatcher's in-flight semaphore.
"""

from .async_dispatcher import AsyncDispatcher
from .dispatcher import Dispatcher
from .http import HTTPServer, ServerHandle

__all__ = ["AsyncDispatcher", "Dispatcher", "HTTPServer", "ServerHandle"]
