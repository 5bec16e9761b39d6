"""Method-aware, parameterized routing and the middleware pipeline.

This module is the front half of the web framework's request path:

* :class:`Route` / :class:`Router` — URL patterns with typed parameters
  (``/paper/<int:pid>``), per-route HTTP methods, and proper 404-vs-405
  semantics (a path that exists but does not allow the request's method is
  :class:`MethodNotAllowed`, never a 404);
* :class:`Middleware` — the request/response/exception pipeline that
  replaced ``WebApplication.before_request`` and ``catch_violations``;
* the stock middlewares every RESIN application wants at its boundary:
  :class:`SessionMiddleware` (cookie → session → authenticated user),
  :class:`UntrustedInputMiddleware` (taint-marks request input, the
  "mark inputs" half of the Section 5.3 assertions) and
  :class:`CatchViolationsMiddleware` (maps an escaping
  :class:`~repro.core.exceptions.PolicyViolation` to an HTTP 403).

Patterns are plain paths with ``<name>`` / ``<converter:name>`` segments.
Converters validate *and type* the captured value; a segment that fails its
converter means the route simply does not match (so ``/paper/abc`` falls
through to a 404 rather than reaching a handler expecting an ``int``).  The
``path`` converter is the only one that may span ``/`` separators; routes
are tried in registration order and the first match wins, so register more
specific patterns (``/wiki/<path:name>/raw``) before greedier ones
(``/wiki/<path:name>``).
"""

from __future__ import annotations

import inspect
import re
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..core.exceptions import HTTPError

__all__ = [
    "CONVERTERS",
    "CatchViolationsMiddleware",
    "MethodNotAllowed",
    "Middleware",
    "RequestLogMiddleware",
    "Route",
    "RouteMatch",
    "Router",
    "ScopedMiddleware",
    "SessionMiddleware",
    "UntrustedInputMiddleware",
]


class MethodNotAllowed(HTTPError):
    """The path matched a route, but no route allows the request's method.

    Carries the methods that *are* allowed so the application can emit an
    ``Allow`` header, per RFC 9110.
    """

    def __init__(self, method: str, path: str, allowed: Iterable[str]):
        self.allowed: Tuple[str, ...] = tuple(sorted(set(allowed)))
        super().__init__(
            405,
            f"method {method} not allowed for {path} "
            f"(allow: {', '.join(self.allowed)})",
        )


def _int_converter(value: str) -> int:
    if not value.isdigit():
        raise ValueError(f"not an integer segment: {value!r}")
    return int(value)


def _float_converter(value: str) -> float:
    return float(value)


#: name -> callable(str) raising ValueError when the segment does not belong
#: to the converter's domain.  ``path`` is special-cased by the compiler (it
#: is the only converter whose segment may contain ``/``).
CONVERTERS: Dict[str, Callable[[str], Any]] = {
    "str": str,
    "int": _int_converter,
    "float": _float_converter,
    "path": str,
}

_PARAM = re.compile(
    r"<(?:(?P<converter>[a-zA-Z_][a-zA-Z0-9_]*):)?"
    r"(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)>"
)


def _compile(pattern: str) -> Tuple["re.Pattern", Dict[str, Callable]]:
    """Compile a route pattern into a regex plus per-parameter converters."""
    regex_parts: List[str] = []
    converters: Dict[str, Callable[[str], Any]] = {}
    position = 0
    for param in _PARAM.finditer(pattern):
        regex_parts.append(re.escape(pattern[position:param.start()]))
        name = param.group("name")
        converter = param.group("converter") or "str"
        if converter not in CONVERTERS:
            raise ValueError(
                f"unknown route converter {converter!r} in {pattern!r}; "
                f"known: {', '.join(sorted(CONVERTERS))}"
            )
        if name in converters:
            raise ValueError(
                f"duplicate parameter {name!r} in route pattern {pattern!r}"
            )
        segment = r".+" if converter == "path" else r"[^/]+"
        regex_parts.append(f"(?P<{name}>{segment})")
        converters[name] = CONVERTERS[converter]
        position = param.end()
    regex_parts.append(re.escape(pattern[position:]))
    return re.compile("".join(regex_parts) + r"\Z"), converters


class Route:
    """One registered route: a pattern, the methods it serves, a handler.

    ``methods=None`` means "any method" (the behaviour of the old flat
    ``routes`` dict); otherwise the route serves exactly the given methods,
    with ``HEAD`` implied by ``GET``.  ``is_coroutine`` records whether the
    handler is an ``async def`` — the dispatcher uses it to decide between
    awaiting the handler on the event loop and sending it to a worker thread.
    """

    def __init__(
        self,
        pattern: str,
        handler: Callable[..., Any],
        methods: Optional[Iterable[str]] = ("GET",),
        name: Optional[str] = None,
    ):
        if not callable(handler):
            raise TypeError(f"route handler must be callable, got {handler!r}")
        self.pattern = str(pattern)
        self.handler = handler
        if methods is None:
            self.methods: Optional[frozenset] = None
        else:
            normalized = {str(m).upper() for m in methods}
            if not normalized:
                raise ValueError(f"route {pattern!r} allows no methods")
            if "GET" in normalized:
                normalized.add("HEAD")
            self.methods = frozenset(normalized)
        self.name = name or getattr(handler, "__name__", self.pattern)
        self.is_coroutine = inspect.iscoroutinefunction(handler)
        self._regex, self._converters = _compile(self.pattern)

    def allows(self, method: str) -> bool:
        return self.methods is None or str(method).upper() in self.methods

    def match_path(self, path: str) -> Optional[Dict[str, Any]]:
        """The converted parameters when ``path`` matches, else ``None``.

        A converter rejecting its segment (``ValueError``) means *no match*:
        the path does not belong to this route's URL space.
        """
        found = self._regex.match(str(path))
        if found is None:
            return None
        params: Dict[str, Any] = {}
        for key, value in found.groupdict().items():
            try:
                params[key] = self._converters[key](value)
            except ValueError:
                return None
        return params

    def __repr__(self) -> str:
        methods = "ANY" if self.methods is None else ",".join(sorted(self.methods))
        return f"Route({self.pattern!r}, methods={methods}, name={self.name!r})"


class RouteMatch:
    """A resolved dispatch: the route plus its converted path parameters."""

    __slots__ = ("route", "params")

    def __init__(self, route: Route, params: Dict[str, Any]):
        self.route = route
        self.params = params

    @property
    def handler(self) -> Callable[..., Any]:
        return self.route.handler

    def __repr__(self) -> str:
        return f"RouteMatch({self.route.pattern!r}, params={self.params!r})"


class Router:
    """An ordered route table with method-aware matching.

    ``match`` returns a :class:`RouteMatch`, returns ``None`` when no route
    owns the path (the application then falls back to static mounts /
    a 404), and raises :class:`MethodNotAllowed` when routes own the path
    but none serves the request's method — the 405-vs-404 distinction the
    flat path → handler dict could not express.
    """

    def __init__(self):
        self._routes: List[Route] = []

    def add(
        self,
        pattern: str,
        handler: Callable[..., Any],
        methods: Optional[Iterable[str]] = ("GET",),
        name: Optional[str] = None,
    ) -> Route:
        route = Route(pattern, handler, methods=methods, name=name)
        self._routes.append(route)
        return route

    def route(
        self,
        pattern: str,
        methods: Optional[Iterable[str]] = ("GET",),
        name: Optional[str] = None,
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator form of :meth:`add` (used via ``app.route``)."""

        def decorator(handler: Callable[..., Any]) -> Callable[..., Any]:
            self.add(pattern, handler, methods=methods, name=name)
            return handler

        return decorator

    def match(self, path: str, method: str = "GET") -> Optional[RouteMatch]:
        allowed: List[str] = []
        for route in self._routes:
            params = route.match_path(path)
            if params is None:
                continue
            if route.allows(method):
                return RouteMatch(route, params)
            allowed.extend(route.methods or ())
        if allowed:
            raise MethodNotAllowed(method, path, allowed)
        return None

    def literal(self, pattern: str) -> Optional[Route]:
        """The first route registered under exactly ``pattern``, or
        ``None``."""
        for route in self._routes:
            if route.pattern == str(pattern):
                return route
        return None

    @property
    def routes(self) -> Tuple[Route, ...]:
        return tuple(self._routes)

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self):
        return iter(self._routes)

    def __repr__(self) -> str:
        return f"Router({[r.pattern for r in self._routes]!r})"


# -- middleware ---------------------------------------------------------------


class Middleware:
    """One stage of the request pipeline.

    Subclasses override any of the three hooks:

    * ``process_request(request, response)`` — runs before routing, in
      registration order.  Returning non-``None`` **short-circuits**: later
      middlewares and the handler are skipped, and the value is applied as
      the handler result (a :class:`~repro.web.response.Response`, a string,
      or ``True`` for "the response channel is already written").
    * ``process_response(request, response)`` — runs after the handler (or
      the short-circuit, or a mapped error), in *reverse* registration
      order, only for middlewares whose request phase ran.
    * ``process_exception(request, response, exc)`` — consulted in reverse
      order when the request phase or the handler raises.  Returning
      non-``None`` marks the exception handled (the value is applied like a
      handler result); returning ``None`` passes it to the next middleware
      and ultimately re-raises.
    """

    #: The owning application, set by ``WebApplication.middleware``.
    app = None

    def bind(self, app) -> None:
        self.app = app

    def process_request(self, request, response):
        return None

    def process_response(self, request, response):
        return None

    def process_exception(self, request, response, exc):
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FunctionMiddleware(Middleware):
    """Adapts a plain ``fn(request)`` / ``fn(request, response)`` callable to
    one middleware phase — what ``@app.middleware`` builds for you."""

    def __init__(self, fn: Callable[..., Any], phase: str = "request"):
        if phase not in ("request", "response"):
            raise ValueError(f"unknown middleware phase {phase!r}")
        self.fn = fn
        self.phase = phase
        self._wants_response = self._takes_two_positionals(fn)

    @staticmethod
    def _takes_two_positionals(fn: Callable[..., Any]) -> bool:
        """True when ``fn`` should be called as ``fn(request, response)``.

        Only *required* positional parameters count — a hook like
        ``mark_request_untrusted(request, source="http-param")`` takes one
        argument as far as the pipeline is concerned, and its defaults stay
        untouched.  ``*args`` hooks get both.
        """
        try:
            parameters = inspect.signature(fn).parameters.values()
        except (TypeError, ValueError):
            return True
        positional = (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        )
        required = 0
        for parameter in parameters:
            if parameter.kind is inspect.Parameter.VAR_POSITIONAL:
                return True
            if parameter.kind in positional:
                if parameter.default is inspect.Parameter.empty:
                    required += 1
        return required >= 2

    def _call(self, request, response):
        if self._wants_response:
            return self.fn(request, response)
        return self.fn(request)

    def process_request(self, request, response):
        if self.phase == "request":
            return self._call(request, response)
        return None

    def process_response(self, request, response):
        if self.phase == "response":
            return self._call(request, response)
        return None

    def __repr__(self) -> str:
        name = getattr(self.fn, "__name__", repr(self.fn))
        return f"FunctionMiddleware({name}, phase={self.phase!r})"


class ScopedMiddleware(Middleware):
    """A pipeline stage bound to a URL subtree.

    Wraps another middleware (or a plain hook, via
    :class:`FunctionMiddleware`) so its three phases run only for requests
    whose path lies under ``prefix`` — ``prefix="/admin"`` covers
    ``/admin`` and ``/admin/...`` but not ``/administrator``.  This is how
    server-level concerns (request logging, input marking, violation
    mapping, limits) compose with the pipeline per application area instead
    of globally; ``app.middleware(hook, prefix="/admin")`` builds one.
    """

    def __init__(self, prefix: str, middleware: Any, *, phase: str = "request"):
        if isinstance(middleware, Middleware):
            self.wrapped = middleware
        elif callable(middleware):
            self.wrapped = FunctionMiddleware(middleware, phase=phase)
        else:
            raise TypeError(
                f"ScopedMiddleware wants a Middleware or callable, got "
                f"{middleware!r}"
            )
        self.prefix = "/" + str(prefix).strip("/")
        if self.prefix == "/":
            raise ValueError(
                "ScopedMiddleware prefix must name a proper subtree; an "
                "unscoped middleware already covers the whole URL space"
            )

    def bind(self, app) -> None:
        super().bind(app)
        self.wrapped.bind(app)

    def covers(self, path: str) -> bool:
        path = str(path)
        return path == self.prefix or path.startswith(self.prefix + "/")

    def process_request(self, request, response):
        if not self.covers(request.path):
            return None
        return self.wrapped.process_request(request, response)

    def process_response(self, request, response):
        if not self.covers(request.path):
            return None
        return self.wrapped.process_response(request, response)

    def process_exception(self, request, response, exc):
        if not self.covers(request.path):
            return None
        return self.wrapped.process_exception(request, response, exc)

    def __repr__(self) -> str:
        return f"ScopedMiddleware({self.prefix!r}, {self.wrapped!r})"


class RequestLogMiddleware(Middleware):
    """Records one ``(request_id, method, path, user, status)`` entry per
    request — the canonical server-level concern to scope to a subtree.
    Entries land in the list passed in (or an internal one, exposed as
    ``entries``); the response phase runs after the handler, so ``status``
    is final.  ``request_id`` is the environment-unique id stamped at
    dispatch time (``request.id``) — the same number audit events and
    violations carry, so one grep correlates a request across all three."""

    def __init__(self, entries: Optional[List[tuple]] = None):
        self.entries: List[tuple] = entries if entries is not None else []

    def process_response(self, request, response):
        self.entries.append(
            (
                getattr(request, "id", None),
                request.method,
                request.path,
                request.user,
                response.status,
            )
        )
        return None


class SessionMiddleware(Middleware):
    """Resolves the request's session from its cookie.

    Looks the ``cookie`` value up in the session store (by default the
    application environment's ``sessions``), exposes it as
    ``request.session``, and — when the request carries no authenticated
    user of its own — adopts the session's user, so handlers and policies
    downstream see the principal the cookie proves.
    """

    def __init__(self, store=None, cookie: str = "sid"):
        self.store = store
        self.cookie = cookie

    def process_request(self, request, response):
        store = self.store
        if store is None and self.app is not None:
            store = self.app.env.sessions
        session = store.get(request.cookies.get(self.cookie)) if store else None
        request.session = session
        if session is not None and request.user is None:
            request.user = session.user
        return None


class UntrustedInputMiddleware(Middleware):
    """Marks every request parameter and uploaded file ``UntrustedData`` —
    the "mark the inputs" half of the SQL-injection / XSS assertions of
    Section 5.3, formerly a ``before_request`` hook."""

    def __init__(self, source: str = "http-param"):
        self.source = source

    def process_request(self, request, response):
        from ..security.assertions import mark_request_untrusted

        mark_request_untrusted(request, self.source)
        return None


class CatchViolationsMiddleware(Middleware):
    """Maps an escaping :class:`~repro.core.exceptions.PolicyViolation` to
    an HTTP 403 — the middleware form of the old ``catch_violations`` flag.

    The violation message is appended to the channel's delivered chunks
    directly (not written through the filter chain): explaining *why* a
    write was refused must not itself be refused.
    """

    def process_exception(self, request, response, exc):
        from ..core.exceptions import PolicyViolation

        if not isinstance(exc, PolicyViolation):
            return None
        response.set_status(403)
        response.chunks.append(f"Forbidden: {exc}")
        return True
