"""The asyncio request dispatcher.

``AsyncDispatcher`` is the event-loop twin of
:class:`~repro.server.dispatcher.Dispatcher`: it serves a
:class:`~repro.web.app.WebApplication` from a shared
:class:`~repro.environment.Environment`.  Like the thread dispatcher it
binds nothing itself — ``app.handle`` / ``app.handle_async`` enter each
request into its own :class:`~repro.core.request_context.RequestContext`.
The execution substrate is chosen **per route**:

* a request that resolves to an ``async def`` handler is served *natively*
  on the event loop — ``app.handle_async(request)`` is awaited in the
  serving task, binding the context in that task's own :mod:`contextvars`
  context, with no executor hop;
* everything else (sync handlers, static files, unrouted paths) runs
  ``app.handle`` on an executor thread via ``loop.run_in_executor`` inside
  a contextvars snapshot of the submitting task.

Either way the per-request state (user, HTTP channel, filesystem context,
database filter overlay) composes with asyncio tasks the same way it does
with worker threads.

What the event loop adds over the thread-pool front end:

* **Backpressure** — a bounded semaphore caps the number of requests in
  flight; submissions past the cap queue on the loop without consuming a
  thread.
* **Cancellation** — ``task.cancel()`` abandons a request.  A *native*
  ``async def`` handler is interrupted at its next suspension point and its
  ``RequestContext`` unwinds right there on the loop (the per-request
  database filter overlay pops with it); a sync handler already running
  completes on its executor thread and unwinds there; a request still
  queued on the semaphore never starts.
* **Graceful shutdown** — :meth:`aclose` stops accepting work, waits for
  (or cancels) the in-flight tasks, then releases the executor.

A :class:`~repro.core.exceptions.PolicyViolation` escaping one handler
surfaces only through that request's task::

    app = WebApplication(env)

    async def main():
        async with AsyncDispatcher(app, workers=16) as server:
            tasks = [server.submit(req) for req in requests]
            responses = await asyncio.gather(*tasks)
"""

from __future__ import annotations

import asyncio
import contextvars
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, List, Optional

from ..web.request import Request

__all__ = ["AsyncDispatcher"]


class AsyncDispatcher:
    """Serves a :class:`~repro.web.app.WebApplication` on an asyncio loop.

    ``workers`` sizes the executor actually running handlers;
    ``max_in_flight`` bounds the number of admitted requests (defaults to
    ``2 * workers``, so a full pool plus one queued batch — raise it for
    I/O-heavy handlers, lower it to shed load earlier).  Requests are served
    from the application's own environment (``app.env``).

    One dispatcher serves one event loop at a time: the admission gate
    re-binds to the current loop whenever no requests are in flight, so
    repeated ``asyncio.run(...)`` calls against the same dispatcher work.
    """

    def __init__(
        self,
        app,
        workers: int = 4,
        max_in_flight: Optional[int] = None,
    ):
        if int(workers) < 1:
            raise ValueError("workers must be >= 1")
        if max_in_flight is None:
            max_in_flight = 2 * int(workers)
        if int(max_in_flight) < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.app = app
        self.workers = int(workers)
        self.max_in_flight = int(max_in_flight)
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="resin-async"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._in_flight: set = set()
        # Requests admitted through the semaphore right now — includes
        # direct dispatch() awaiters, which never appear in _in_flight.
        self._admitted = 0
        self._closed = False

    # -- dispatch ----------------------------------------------------------------

    async def dispatch(self, request: Request):
        """Serve ``request`` and return its response channel.

        Waits on the admission semaphore (the backpressure bound), then
        awaits ``app.handle_async`` on the loop (``async def`` routes) or
        runs ``app.handle`` on an executor thread inside a snapshot of the
        calling task's :class:`contextvars.Context` — a context the caller
        bound for this request (the socket connection does) is the one the
        handler sees.  Raises whatever escaped the handler; cancelling the
        awaiting task abandons the request.
        """
        self._check_open()
        return await self._dispatch_admitted(request)

    async def _dispatch_admitted(self, request: Request):
        # No closed-check here: a request admitted by submit()/dispatch()
        # before shutdown began must still be served — that is what makes
        # aclose() a *drain* rather than an abort.
        gate = self._bind_loop()
        async with gate:
            self._admitted += 1
            try:
                if self.app.is_native_async(request):
                    # Loop-native path: the coroutine handler is awaited
                    # right here, in this task's contextvars binding of the
                    # RequestContext — no executor hop, and cancelling the
                    # task unwinds context and overlays on the loop.
                    return await self.app.handle_async(request)
                loop = asyncio.get_running_loop()
                snapshot = contextvars.copy_context()
                return await loop.run_in_executor(
                    self._executor, snapshot.run, self.app.handle, request
                )
            finally:
                self._admitted -= 1

    def submit(self, request: Request) -> "asyncio.Task":
        """Queue ``request`` and return the task serving it.

        The task is tracked until it finishes, so :meth:`aclose` can drain
        (or cancel) everything in flight.
        """
        self._check_open()
        self._bind_loop()
        task = asyncio.get_running_loop().create_task(self._dispatch_admitted(request))
        self._in_flight.add(task)
        task.add_done_callback(self._in_flight.discard)
        return task

    async def dispatch_all(
        self, requests: Iterable[Request], return_exceptions: bool = False
    ) -> List:
        """Serve many requests concurrently, preserving submission order.

        With ``return_exceptions`` the result list holds the exception
        object for each failed request instead of raising on the first
        failure — one request's ``PolicyViolation`` never aborts another's.
        """
        tasks = [self.submit(request) for request in requests]
        return await asyncio.gather(*tasks, return_exceptions=return_exceptions)

    def run(self, requests: Iterable[Request], return_exceptions: bool = False) -> List:
        """Synchronous convenience: serve a batch via ``asyncio.run``.

        For callers without an event loop of their own (benchmarks, the
        Table 4 harness).  Must not be called while a loop is running.
        """
        return asyncio.run(self.dispatch_all(requests, return_exceptions))

    def _bind_loop(self) -> asyncio.Semaphore:
        # The admission semaphore belongs to one event loop; re-bind to the
        # current loop only when nothing is in flight on the previous one
        # (which is what lets repeated asyncio.run() calls reuse a
        # dispatcher).  _admitted covers direct dispatch() awaiters, which
        # hold semaphore permits without ever appearing in _in_flight.
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            if self._admitted or any(
                not task.done() for task in self._in_flight
            ):
                raise RuntimeError(
                    "AsyncDispatcher is already serving on another event loop"
                )
            self._loop = loop
            self._semaphore = asyncio.Semaphore(self.max_in_flight)
        return self._semaphore

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("dispatcher has been shut down")

    # -- lifecycle ---------------------------------------------------------------

    async def aclose(self, cancel_pending: bool = False) -> None:
        """Graceful shutdown: refuse new work, drain in-flight requests.

        With ``cancel_pending`` the in-flight tasks are cancelled instead of
        awaited to completion (handlers already on an executor thread still
        run to completion there — their request context unwinds with them).
        Idempotent.
        """
        self._closed = True
        pending = [task for task in self._in_flight if not task.done()]
        if cancel_pending:
            for task in pending:
                task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._executor.shutdown)

    def shutdown(self, wait: bool = True) -> None:
        """Synchronous shutdown, for use outside any event loop."""
        self._closed = True
        self._executor.shutdown(wait=wait)

    async def __aenter__(self) -> "AsyncDispatcher":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.aclose()
        return False

    def __enter__(self) -> "AsyncDispatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"AsyncDispatcher(app={getattr(self.app, 'name', self.app)!r}, "
            f"workers={self.workers}, max_in_flight={self.max_in_flight}, {state})"
        )
