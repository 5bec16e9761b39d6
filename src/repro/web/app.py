"""A miniature web framework.

``WebApplication`` dispatches :class:`~repro.web.request.Request` objects
through a :class:`~repro.web.routing.Router` (method-aware, parameterized
patterns) and a middleware pipeline, giving each request its own
:class:`~repro.channels.httpout.HTTPOutputChannel` (the RESIN data flow
boundary to the browser).  It also plays the role of the RESIN-aware web
server of Section 3.4.1: static files are served only after invoking the
policies stored in the file's extended attributes, and files with an
executable extension are run through the interpreter's code-import channel
rather than served raw.

Handlers take ``(request, response, **route_params)`` and either write to
the response channel directly or return a value — ``None`` (already
written), a string or bytes (written through the channel), or a
:class:`~repro.web.response.Response` (status + headers + body, applied
through the channel).  The channel takes plain text as the ``str`` it is,
without wrapping it in a ``TaintedStr``, and decodes bytes as UTF-8.  ``async def`` handlers are first-class:
:class:`~repro.server.async_dispatcher.AsyncDispatcher` awaits them
natively on its own loop via :meth:`WebApplication.handle_async` — no
executor hop — while a direct :meth:`WebApplication.handle` call runs
them to completion on a private event loop.

One coroutine, :meth:`WebApplication._serve`, is the whole request
pipeline: middleware, routing, the handler, applying its result and mapping
its exceptions.  :meth:`WebApplication.handle_async` awaits it;
:meth:`WebApplication.handle` steps it inline on the calling thread and
starts no event loop of its own — only a coroutine handler or an ``async``
generator body reaches one, through :func:`~repro.web.response.settle`.
Both enter each request through
:func:`~repro.core.request_context.enter_request`.  The dispatcher calls
them and binds nothing itself; the socket server enters the request
before dispatch and the application reuses that
:class:`~repro.core.request_context.RequestContext`, so every front end
serves a request under exactly one context.
"""

from __future__ import annotations

import asyncio
import copy
from typing import Any, Callable, List, Optional, Tuple

from ..channels.httpout import HTTPOutputChannel
from ..core.exceptions import HTTPError
from ..core.filter import Filter
from ..core.request_context import RequestContext, enter_request
from ..fs import path as fspath
from .request import Request
from .response import Response, settle
from .routing import (
    FunctionMiddleware,
    MethodNotAllowed,
    Middleware,
    RouteMatch,
    Router,
    ScopedMiddleware,
)

Handler = Callable[..., Any]

#: Sentinel: the request phase ran every middleware without short-circuiting.
_CONTINUE = object()


class WebApplication:
    """Routes requests and serves static files for one application."""

    #: File extensions treated as server-side scripts when served from a
    #: static directory (the server-side script injection vector of
    #: Section 2: uploaded ``.php`` files can be executed by requesting them).
    SCRIPT_EXTENSIONS = ("php", "py")

    def __init__(self, env, name: str = "app"):
        self.env = env
        self.name = name
        #: The route table (method-aware, parameterized patterns).
        self.router = Router()
        self.static_mounts: List[Tuple[str, str]] = []
        self.response_filters: List[Filter] = []
        #: The middleware pipeline, in registration order.
        self.middlewares: List[Middleware] = []

    # -- configuration ------------------------------------------------------------

    def route(
        self,
        pattern: str,
        methods: Optional[Any] = ("GET",),
        name: Optional[str] = None,
    ) -> Callable[[Handler], Handler]:
        """Register a handler: ``@app.route("/paper/<int:pid>",
        methods=["GET", "POST"])``.  ``methods=None`` serves every method."""
        return self.router.route(pattern, methods=methods, name=name)

    def middleware(
        self,
        middleware: Optional[Any] = None,
        *,
        phase: str = "request",
        prefix: Optional[str] = None,
    ) -> Any:
        """Add a pipeline stage.

        Accepts a :class:`~repro.web.routing.Middleware` instance, a plain
        callable (wrapped as a one-phase
        :class:`~repro.web.routing.FunctionMiddleware`), or no argument —
        decorator form: ``@app.middleware`` / ``@app.middleware(
        phase="response")``.  With ``prefix`` the stage is scoped to that
        URL subtree (a :class:`~repro.web.routing.ScopedMiddleware`): it
        runs only for requests whose path lives under the prefix.
        """
        if middleware is None:

            def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
                self.middleware(fn, phase=phase, prefix=prefix)
                return fn

            return decorator
        if prefix is not None:
            stage: Middleware = ScopedMiddleware(prefix, middleware, phase=phase)
        elif isinstance(middleware, Middleware):
            stage = middleware
        elif callable(middleware):
            stage = FunctionMiddleware(middleware, phase=phase)
        else:
            raise TypeError(
                f"middleware must be a Middleware or a callable, got {middleware!r}"
            )
        stage.bind(self)
        self.middlewares.append(stage)
        return middleware

    def add_static_mount(self, url_prefix: str, directory: str) -> None:
        """Serve files under ``directory`` at ``url_prefix``."""
        self.static_mounts.append((url_prefix.rstrip("/"), directory))

    def add_response_filter(self, flt: Filter) -> None:
        """Stack a filter on every response channel (e.g. an XSS filter).

        Each response gets its own shallow copy of the filter, so that
        concurrent requests never share a mutable filter context.
        """
        self.response_filters.append(flt)

    # -- request handling ---------------------------------------------------------

    def handle(self, request: Request) -> HTTPOutputChannel:
        """Process one request and return the response channel.

        The request runs inside the
        :class:`~repro.core.request_context.RequestContext` that
        :func:`~repro.core.request_context.enter_request` yields: the one a
        front end (the socket connection) already bound for this very
        request, or a fresh one nested inside whatever scope the caller
        holds (``Resin.request`` blocks hand their user back on return).

        The pipeline coroutine is stepped right here, with no event loop:
        a sync handler never suspends it.  ``async def`` handlers and
        ``async`` generator bodies run to completion on a private event
        loop — use :meth:`handle_async` (or
        :class:`~repro.server.async_dispatcher.AsyncDispatcher`) to await
        them on a shared loop instead.  On a thread whose loop is running,
        a request that suspends raises :class:`RuntimeError`.
        """
        with enter_request(self.env, request) as rctx:
            serving = self._serve(request, rctx)
            try:
                serving.send(None)
            except StopIteration as done:
                return done.value
            serving.close()
            raise RuntimeError(
                "the request suspended on this thread's running event loop; "
                "await handle_async() instead"
            )

    async def handle_async(self, request: Request) -> HTTPOutputChannel:
        """Process one request on the running event loop.

        Coroutine handlers are awaited *directly* — no executor hop; their
        awaits suspend inside the request's
        :class:`~repro.core.request_context.RequestContext` (a contextvars
        binding, task-local), and cancelling the awaiting task unwinds the
        context and its per-request filter overlays.  Sync handlers are
        called inline — run them on a worker thread (what
        :class:`~repro.server.async_dispatcher.AsyncDispatcher` does) when
        they might block the loop.
        """
        with enter_request(self.env, request) as rctx:
            return await self._serve(request, rctx)

    def is_native_async(self, request: Request) -> bool:
        """True when ``request`` resolves to an ``async def`` handler — the
        per-route decision :class:`~repro.server.async_dispatcher
        .AsyncDispatcher` uses to keep coroutines on the loop and send
        everything else to its worker threads.

        The resolved match is cached on the request, so the dispatch that
        follows does not pay for a second route scan.
        """
        try:
            match = self.router.match(request.path, request.method)
        except HTTPError:
            return False
        if match is not None:
            request._route_match = (self, request.path, request.method, match)
        return match is not None and match.route.is_coroutine

    # -- the request pipeline -----------------------------------------------------

    async def _serve(self, request: Request, rctx: RequestContext) -> HTTPOutputChannel:
        """Middleware, route, handler, apply, exception hooks: the one
        request pipeline.  It suspends only inside :func:`settle`."""
        response = self._begin(request, rctx)
        ran: List[Middleware] = []
        try:
            result = self._request_phase(request, response, ran, rctx)
            if result is _CONTINUE:
                match = self._match(request, rctx)
                if match is None:
                    self._serve_static(request, response)
                    result = None
                else:
                    result = match.handler(request, response, **match.params)
                    if asyncio.iscoroutine(result):
                        result = await settle(result)
            await self._apply_result(response, result, request)
        except Exception as exc:  # noqa: BLE001 - mapped or re-raised below
            if not await self._handle_exception(request, response, ran, exc):
                raise
        self._response_phase(request, response, ran)
        return response

    # -- shared plumbing ----------------------------------------------------------

    def _begin(self, request: Request, rctx: RequestContext) -> HTTPOutputChannel:
        response = HTTPOutputChannel({"url": request.path}, env=self.env)
        response.set_user(request.user)
        rctx.http = response
        for flt in self.response_filters:
            response.add_filter(copy.copy(flt))
        self.env.fs.set_request_context(user=request.user)
        return response

    def _request_phase(
        self,
        request: Request,
        response: HTTPOutputChannel,
        ran: List[Middleware],
        rctx: RequestContext,
    ) -> Any:
        """Run ``process_request`` stages in order; a non-``None`` return
        short-circuits.  Afterwards the request's (possibly middleware-
        resolved) user is synchronized onto the context and the channel."""
        result = _CONTINUE
        for mw in self.middlewares:
            ran.append(mw)
            value = mw.process_request(request, response)
            if value is not None:
                result = value
                break
        if rctx.user != request.user:
            rctx.user = request.user
            rctx.fs_context["user"] = request.user
            response.set_user(request.user)
        return result

    def _response_phase(
        self,
        request: Request,
        response: HTTPOutputChannel,
        ran: List[Middleware],
    ) -> None:
        for mw in reversed(ran):
            mw.process_response(request, response)

    def _match(self, request: Request, rctx: RequestContext) -> Optional[RouteMatch]:
        cached, request._route_match = request._route_match, None
        if cached is not None and cached[:3] == (self, request.path, request.method):
            match = cached[3]
        else:
            match = self.router.match(request.path, request.method)
        if match is not None:
            rctx.route = match.route.name
            rctx.route_params = dict(match.params)
        return match

    async def _apply_result(
        self, response: HTTPOutputChannel, result: Any, request: Request
    ) -> None:
        """Emit a handler/middleware result through the channel.

        ``Response`` objects are applied; strings and bytes are written
        (policies intact, so the boundary check still runs; plain text stays
        a ``str`` and bytes are decoded as UTF-8).  Anything else
        means "the handler wrote to the channel itself" and is ignored —
        which is also what keeps legacy handlers that ``return
        response.write(...)`` (an int) working.

        A ``Response`` carrying stream chunks is *deferred* when the request
        came through a streaming consumer (the socket server sets
        ``request.stream_consumer``): status and headers are applied now,
        the body sources are parked on ``response.pending_stream``, and the
        consumer drains them — each piece still crosses ``channel.write``,
        just interleaved with the wire.
        """
        if isinstance(result, Response):
            if request.stream_consumer and result.has_stream():
                result.apply_headers(response)
                response.pending_stream = result
            else:
                await result.apply(response)
        elif isinstance(result, (str, bytes)):
            response.write(result)

    async def _handle_exception(
        self,
        request: Request,
        response: HTTPOutputChannel,
        ran: List[Middleware],
        exc: Exception,
    ) -> bool:
        """Map an exception to a response; False means "re-raise".

        ``process_exception`` hooks run in reverse registration order (a
        :class:`~repro.web.routing.CatchViolationsMiddleware` turns policy
        violations into 403s here); :class:`~repro.core.exceptions.HTTPError`
        has built-in status mapping.  Everything else — including a
        ``PolicyViolation`` with no catching middleware — propagates to the
        dispatcher, which confines it to the offending request.
        """
        for mw in reversed(ran):
            value = mw.process_exception(request, response, exc)
            if value is not None:
                await self._apply_result(response, value, request)
                return True
        if isinstance(exc, HTTPError):
            response.set_status(exc.status)
            if isinstance(exc, MethodNotAllowed):
                response.headers.append(("Allow", ", ".join(exc.allowed)))
            response.chunks.append(str(exc))
            return True
        return False

    # -- static files (the RESIN-aware web server) --------------------------------

    def _serve_static(self, request: Request, response: HTTPOutputChannel) -> None:
        for prefix, directory in self.static_mounts:
            if not request.path.startswith(prefix + "/") and request.path != prefix:
                continue
            relative = request.path[len(prefix) :].lstrip("/")
            target = fspath.join(directory, relative)
            # Canonicalize-and-confine: join() resolves ".." lexically, so a
            # crafted URL ("/static/../secret") lands outside the mounted
            # directory.  Refuse anything that escaped the mount instead of
            # serving it.
            if not fspath.is_inside(target, directory):
                raise HTTPError(404, f"not found: {request.path}")
            if not self.env.fs.isfile(target):
                continue
            if fspath.extension(target) in self.SCRIPT_EXTENSIONS:
                # Executing a server-side script: the code flows through the
                # interpreter's import channel, where the script-injection
                # assertion (if installed) checks for CodeApproval.
                self.env.interpreter.execute_file(target, request, response)
                return
            content = self.env.fs.read_bytes(target)
            # A RESIN-aware web server invokes the file's policy objects
            # before transmitting the file (Section 3.4.1).
            response.write(content.decode("utf-8", "replace"))
            return
        raise HTTPError(404, f"not found: {request.path}")

    def __repr__(self) -> str:
        return (
            f"WebApplication({self.name!r}, routes={len(self.router)}, "
            f"middlewares={len(self.middlewares)})"
        )
