"""The asyncio request dispatcher.

``AsyncDispatcher`` serves a :class:`~repro.web.app.WebApplication` from
a shared :class:`~repro.environment.Environment`.  It binds nothing itself
— ``app.handle`` / ``app.handle_async`` enter each request into its own
:class:`~repro.core.request_context.RequestContext`.
The execution substrate is chosen **per route**:

* a request that resolves to an ``async def`` handler is served *natively*
  on the event loop — ``app.handle_async(request)`` is awaited in the
  serving task, binding the context in that task's own :mod:`contextvars`
  context, with no thread hop;
* everything else (sync handlers, static files, unrouted paths) runs
  ``app.handle`` on one of up to ``workers`` pool threads, inside a
  :mod:`contextvars` snapshot of the submitting task.  The threads start on
  demand and take requests from one :class:`queue.SimpleQueue`; the serving
  task awaits a bare loop future, which the thread settles with one
  ``loop.call_soon_threadsafe`` as its last act before it blocks again.  A
  request therefore costs one wake-up of the loop from another thread and
  allocates no asyncio Task and no :class:`concurrent.futures.Future`.

Either way the per-request state (user, HTTP channel, filesystem context,
database filter overlay) composes with asyncio tasks the same way it does
with worker threads.

What the event loop adds:

* **Backpressure** — a bounded semaphore caps the number of requests in
  flight; submissions past the cap queue on the loop without consuming a
  thread.
* **Cancellation** — ``task.cancel()`` abandons a request.  A *native*
  ``async def`` handler is interrupted at its next suspension point and its
  ``RequestContext`` unwinds right there on the loop (the per-request
  database filter overlay pops with it); a sync handler already running
  completes on its pool thread and unwinds there, and its result is
  dropped; a request still queued (on the semaphore or for a thread) never
  starts.
* **Graceful shutdown** — :meth:`aclose` stops accepting work, waits for
  (or cancels) the in-flight tasks, then stops and joins the pool threads.

A :class:`~repro.core.exceptions.PolicyViolation` escaping one handler
surfaces only through that request's task::

    app = WebApplication(env)

    async def main():
        async with AsyncDispatcher(app, workers=16) as server:
            tasks = [server.submit(req) for req in requests]
            responses = await asyncio.gather(*tasks)

    # or, from sync code with no loop of its own
    with AsyncDispatcher(app, workers=16) as server:
        responses = server.run(requests, return_exceptions=True)
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
from collections import deque
from queue import SimpleQueue
from typing import Iterable, List, Optional

from ..web.request import Request

__all__ = ["AsyncDispatcher"]


def _work(jobs: SimpleQueue, idle: deque) -> None:
    """One pool thread: run queued sync requests until the ``None`` sentinel."""
    while True:
        job = jobs.get()
        if job is None:
            return
        _run(job, idle)
        del job  # hold no request or response while blocked on the queue


def _run(job, idle: deque) -> None:
    """Run one ``(future, context, handle, request)`` job and settle its
    loop future.

    The thread marks itself idle before the settlement wakes the loop, so
    the task it wakes finds the thread idle when it queues its next request.
    """
    future, context, handle, request = job
    # A single-attribute read of a loop object from this thread: at worst it
    # misses a cancellation racing it, and _settle then drops the result.
    if future.cancelled():  # abandoned while queued: never start it
        idle.append(None)
        return
    try:
        result, error = context.run(handle, request), None
    except BaseException as exc:  # noqa: BLE001 - raised in the awaiting task
        result, error = None, exc
    idle.append(None)
    try:
        future.get_loop().call_soon_threadsafe(_settle, future, result, error)
    except RuntimeError:  # the loop has closed; nobody awaits the result
        pass
    # A handler's traceback holds this frame: drop the future and the
    # exception, or they form a reference cycle that keeps the request alive
    # until the cycle collector runs.
    del job, future, error


def _settle(future: asyncio.Future, result, error) -> None:
    """Deliver a pool thread's outcome, unless the awaiting task gave up."""
    if future.cancelled():
        return
    if error is None:
        future.set_result(result)
    else:
        future.set_exception(error)


class AsyncDispatcher:
    """Serves a :class:`~repro.web.app.WebApplication` on an asyncio loop.

    ``workers`` caps the pool threads running sync handlers (started on
    demand: one connection issuing requests one by one uses one thread);
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
        self._jobs: SimpleQueue = SimpleQueue()
        # One token per pool thread that finished a job and went back to the
        # queue; taking one claims that thread for the next job.
        self._idle: deque = deque()
        self._threads: List[threading.Thread] = []
        self._stopped = False
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
        runs ``app.handle`` on a pool thread inside a snapshot of the
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
                    # RequestContext — no thread hop, and cancelling the
                    # task unwinds context and overlays on the loop.
                    return await self.app.handle_async(request)
                # The future stays unnamed: a local here would close a
                # reference cycle (exception -> traceback -> this frame ->
                # future -> exception) whenever the handler raises.
                return await self._run_in_pool(request)
            finally:
                self._admitted -= 1

    def _run_in_pool(self, request: Request) -> asyncio.Future:
        """Queue ``app.handle(request)`` for a pool thread, in a snapshot of
        the calling task's context; the returned loop future settles with
        its outcome.  Runs on the loop thread, and so does the stop of the
        pool (:meth:`aclose` queues the sentinels there before it waits for
        the joins): no job can queue behind the sentinels and no thread can
        start uncounted, without a lock."""
        if self._stopped:
            raise RuntimeError("dispatcher's worker threads have been stopped")
        future = self._loop.create_future()
        self._jobs.put((future, contextvars.copy_context(), self.app.handle, request))
        try:
            self._idle.pop()
        except IndexError:
            if len(self._threads) < self.workers:
                thread = threading.Thread(
                    target=_work,
                    args=(self._jobs, self._idle),
                    name=f"resin-async_{len(self._threads)}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        return future

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
        awaited to completion (handlers already on a pool thread still run
        to completion there — their request context unwinds with them).
        Returns once every pool thread has exited.  Idempotent.
        """
        self._closed = True
        pending = [task for task in self._in_flight if not task.done()]
        if cancel_pending:
            for task in pending:
                task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        # Stop the pool here on the loop thread, where jobs are queued: a
        # request that reaches the pool later raises instead of queuing
        # behind the sentinels.  Only the joins leave the loop.
        self.shutdown(wait=False)
        await asyncio.get_running_loop().run_in_executor(None, self.shutdown)

    def shutdown(self, wait: bool = True) -> None:
        """Synchronous shutdown, for use outside any event loop (no loop may
        be dispatching through this dispatcher meanwhile).

        Jobs already queued still run; a job submitted afterwards raises
        :class:`RuntimeError`.  With ``wait`` this returns once every pool
        thread has exited.
        """
        self._closed = True
        if not self._stopped:
            self._stopped = True
            for _ in self._threads:
                self._jobs.put(None)
        if wait:
            for thread in self._threads:
                thread.join()

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
