"""Per-request execution state: the :class:`RequestContext` API.

Historically the "current request" was smeared across mutable attributes of
long-lived objects: ``ResinFS.request_context`` held the authenticated user,
``Database.add_filter`` stacked assertion filters for the life of the
environment, and ``Environment`` kept a shared demo HTTP channel.  That
shape assumes one request at a time — two concurrent requests would stomp
each other's user, filters and output.

``RequestContext`` gathers that state into one object and carries it in a
:mod:`contextvars` context variable, so every thread (and every
:class:`contextvars.Context` copy the dispatcher hands to a worker) sees
exactly the request it is serving:

* ``user`` / ``priv_chair`` / ``extra`` — the authenticated principal and
  any additional channel context for the request;
* ``http`` — the request's own HTTP output channel (and therefore its own
  :class:`~repro.core.runtime.OutputBuffer`);
* ``fs_context`` — the filesystem request context persistent filters see;
* a per-database **filter overlay**: filters installed through
  ``Database.add_filter`` while a request is active live here and vanish
  when the request ends, instead of accumulating on the shared engine.

The substrates consult :func:`current_request` instead of mutating their own
attributes, which is what makes a shared :class:`~repro.environment.Environment`
safe to serve from many threads at once (see
:class:`repro.server.async_dispatcher.AsyncDispatcher`).
"""

from __future__ import annotations

import contextvars
from contextlib import nullcontext
from typing import Any, ContextManager, Dict, List, Optional, Tuple

from .context import FilterContext
from .filter import Filter

__all__ = ["RequestContext", "current_request", "enter_request",
           "request_scoped_context", "stamp_request_id"]

#: The request bound to the running thread/task.  ``None`` means "no request
#: in flight" — the substrates then fall back to their instance attributes,
#: which preserves the old single-request behaviour.
_current: contextvars.ContextVar[Optional["RequestContext"]] = \
    contextvars.ContextVar("resin_request_context", default=None)


def current_request() -> Optional["RequestContext"]:
    """The :class:`RequestContext` active on this thread/task, or ``None``."""
    return _current.get()


def stamp_request_id(env, request=None) -> Optional[int]:
    """The stable id for ``request``, assigned on first stamp.

    Called by :func:`enter_request` for web requests and by
    ``Resin.request`` (which has no ``Request``).  The first stamp draws the
    next id from ``env.next_request_id()`` and writes it onto
    ``request.id``; a request served again keeps the id it already carries.
    Returns ``None`` when ``env`` has no id source.
    """
    if request is not None:
        rid = getattr(request, "id", None)
        if rid is not None:
            return rid
    source = getattr(env, "next_request_id", None)
    rid = source() if callable(source) else None
    if request is not None and rid is not None:
        request.id = rid
    return rid


def enter_request(env, request) -> ContextManager["RequestContext"]:
    """The request entry every web front end shares.

    ``with enter_request(env, request) as rctx:`` yields the
    :class:`RequestContext` already bound on this thread/task for this very
    ``request`` in ``env`` (an outer front end entered it first — the socket
    connection around the dispatcher and the application), or binds a
    fresh, stamped one for the block.  A web request therefore has exactly
    one context from its first parsed byte to its last streamed chunk: the
    user middleware resolved, the HTTP channel and the database filters the
    handler installed are what a deferred stream still sees while it is
    drained.
    """
    rctx = _current.get()
    if rctx is not None and rctx.request is request and rctx.env is env:
        return nullcontext(rctx)
    return RequestContext(env=env, user=request.user, request=request,
                          request_id=stamp_request_id(env, request))


def request_scoped_context(context) -> FilterContext:
    """A filter context enriched with the active request's principal.

    Filters that live on shared substrates (e.g. a SQL-injection guard on the
    engine's base stack) carry a context that knows nothing about who is
    asking.  When such a filter needs to report or decide per-request, this
    helper overlays the current request's ``user`` (without mutating the
    shared context object).

    When the context carries its owning environment (``context.env``, set by
    the channel that built it), a request bound for a *different*
    environment is ignored — its principal must not be misattributed to
    this environment's violations (the same env check the substrates apply).
    """
    rctx = current_request()
    ctx_env = getattr(context, "env", None)
    if (rctx is not None and ctx_env is not None
            and rctx.env is not ctx_env):
        rctx = None
    if rctx is None:
        ctx = context
        if not isinstance(ctx, FilterContext):
            ctx = FilterContext()
            ctx.update(context or {})
        return ctx
    merged = FilterContext()
    merged.update(context or {})
    if rctx.user is not None:
        merged.setdefault("user", rctx.user)
    if rctx.priv_chair:
        merged.setdefault("priv_chair", True)
    return merged


class RequestContext:
    """Everything the runtime keeps for one in-flight request.

    Use as a context manager (``with RequestContext(env=env, user=u): ...``)
    — entering binds it to the calling thread's context, exiting restores
    whatever was bound before, so request scopes nest naturally.  Enter and
    exit must happen on the same thread.  Web front ends do not construct
    one directly: they go through :func:`enter_request`.
    """

    def __init__(self, env=None, user: Optional[str] = None, *,
                 priv_chair: bool = False, request=None,
                 http=None, request_id: Optional[int] = None, **extra: Any):
        #: The environment serving this request (shared across requests).
        self.env = env
        #: The authenticated principal, or None for anonymous requests.
        self.user = user
        self.priv_chair = bool(priv_chair)
        #: Environment-unique monotonic id stamped on entry (all front
        #: ends).  Correlates log lines, audit events and violations for
        #: one request; ``None`` for unstamped ad-hoc contexts.
        self.request_id = request_id
        #: The web Request being served, if any (set by
        #: :func:`enter_request` so nested entries recognise their context).
        self.request = request
        #: The matched route's name and converted path parameters, filled in
        #: by :class:`~repro.web.app.WebApplication` once routing resolves
        #: (``None`` / ``{}`` before dispatch and for unrouted requests).
        self.route: Optional[str] = None
        self.route_params: Dict[str, Any] = {}
        #: This request's HTTP output channel (owns the OutputBuffer).
        self.http = http
        #: Additional channel context (e.g. is_pc) supplied by the caller.
        self.extra: Dict[str, Any] = dict(extra)
        #: The filesystem request context persistent filters consult.
        self.fs_context: Dict[str, Any] = {"user": user}
        #: Per-database filter overlay, keyed by the database object itself
        #: (identity hash; holding the reference also rules out id-reuse
        #: confusion for the request's lifetime).
        self._db_filters: Dict[Any, List[Filter]] = {}
        self._token: Optional[contextvars.Token] = None

    # -- per-request database filter stack ---------------------------------------

    def add_db_filter(self, db, flt: Filter) -> None:
        """Stack ``flt`` on ``db``'s query path for this request only.

        The filter gets its own context (the database's context overlaid with
        the request principal) so concurrent requests never share a mutable
        filter context.
        """
        ctx = FilterContext(type="sql")
        ctx.update(getattr(db, "context", None) or {})
        ctx.update(flt.context)
        ctx["type"] = "sql"
        if self.user is not None:
            ctx.setdefault("user", self.user)
        flt.context = ctx
        self._db_filters.setdefault(db, []).append(flt)

    def db_filters(self, db) -> Tuple[Filter, ...]:
        """The filters this request stacked on ``db`` (in install order)."""
        return tuple(self._db_filters.get(db, ()))

    # -- application services -----------------------------------------------------

    def service(self, name: str, default: Any = None) -> Any:
        """The application service ``name`` published on this request's
        environment (``env.services``), or ``default``.

        Handlers use this instead of module globals to reach the running
        application object (board, wiki, site) for the deployment serving
        the request."""
        services = getattr(self.env, "services", None)
        if services is None:
            return default
        return services.get(name, default)

    # -- binding ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._token is not None

    def __enter__(self) -> "RequestContext":
        if self._token is not None:
            raise RuntimeError("RequestContext is already active")
        self._token = _current.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        token, self._token = self._token, None
        if token is not None:
            _current.reset(token)
        return False

    def __repr__(self) -> str:
        state = "active" if self.active else "inactive"
        return (f"RequestContext(user={self.user!r}, {state}, "
                f"db_overlays={sum(map(len, self._db_filters.values()))})")
