"""The concurrent request dispatcher.

``Dispatcher`` is the piece that turns the single-request runtime into a
server: it wraps a :class:`~repro.web.app.WebApplication` and a thread pool,
and hands every incoming :class:`~repro.web.request.Request` to a worker
thread that calls ``app.handle(request)``.  The dispatcher binds nothing:
the application's request entry binds the request's own
:class:`~repro.core.request_context.RequestContext`.  Because all "current
request" state — the authenticated user, the HTTP output buffer, the
filesystem request context, the per-request database filter overlay —
lives in the context (a :mod:`contextvars` variable), N concurrent requests
share one environment with zero taint or policy leakage between them, and a
:class:`~repro.core.exceptions.PolicyViolation` raised while serving one
request surfaces only through that request's future.

Each submission captures the caller's :class:`contextvars.Context`, so
context-variable state is visible to the worker while everything the worker
binds stays in its private copy.  Application singletons (e.g. phpBB's
board) resolve through ``env.services`` — per environment, not per context —
so every worker of a deployment sees the same application objects::

    app = WebApplication(env)
    with Dispatcher(app, workers=16) as server:
        futures = [server.submit(req) for req in requests]
        responses = [f.result() for f in futures]

For an event-loop front end with backpressure, cancellation and graceful
shutdown over the same request machinery, see
:class:`~repro.server.async_dispatcher.AsyncDispatcher`.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Iterable, List

from ..web.request import Request

__all__ = ["Dispatcher"]


class Dispatcher:
    """Serves a :class:`~repro.web.app.WebApplication` concurrently.

    ``workers`` bounds the number of requests in flight.  Requests are served
    from the application's own environment (``app.env``).
    """

    def __init__(self, app, workers: int = 4):
        if int(workers) < 1:
            raise ValueError("workers must be >= 1")
        self.app = app
        self.workers = int(workers)
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="resin-dispatch"
        )
        self._closed = False

    # -- dispatch ----------------------------------------------------------------

    def submit(self, request: Request) -> Future:
        """Queue ``request`` and return a future for its response channel.

        The future raises whatever escaped the handler (e.g. a
        ``PolicyViolation`` when no
        :class:`~repro.web.routing.CatchViolationsMiddleware` maps it to a
        403); failures are confined to their own future and never affect
        other requests.
        """
        if self._closed:
            raise RuntimeError("dispatcher has been shut down")
        snapshot = contextvars.copy_context()
        return self._executor.submit(snapshot.run, self.app.handle, request)

    def dispatch(self, request: Request):
        """Serve one request synchronously (through the pool)."""
        return self.submit(request).result()

    def dispatch_all(
        self, requests: Iterable[Request], return_exceptions: bool = False
    ) -> List:
        """Serve many requests concurrently, preserving submission order.

        With ``return_exceptions`` the result list holds the exception object
        for each failed request instead of raising on the first failure — the
        shape concurrent evaluation harnesses want.
        """
        futures = [self.submit(request) for request in requests]
        results: List = []
        for future in futures:
            if return_exceptions:
                exc = future.exception()
                results.append(exc if exc is not None else future.result())
            else:
                results.append(future.result())
        return results

    # -- lifecycle ---------------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        self._closed = True
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "Dispatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"Dispatcher(app={getattr(self.app, 'name', self.app)!r}, "
            f"workers={self.workers}, {state})"
        )
