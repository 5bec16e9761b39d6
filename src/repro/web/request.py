"""HTTP requests.

A :class:`Request` models one browser request: method, path, query/form
parameters, cookies and the authenticated user (resolved by the application
from credentials, or by a
:class:`~repro.web.routing.SessionMiddleware` from a session cookie).
Parameter values are plain strings; the untrusted-input assertion
(:func:`repro.security.assertions.mark_request_untrusted`, usually installed
as an :class:`~repro.web.routing.UntrustedInputMiddleware`) is what annotates
them with ``UntrustedData`` — marking inputs is part of an assertion, not of
the substrate.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..core.api import policy_add
from ..tracking.tainted_str import TaintedStr


class Request:
    """One HTTP request."""

    def __init__(
        self,
        path: str,
        method: str = "GET",
        params: Optional[Dict[str, Any]] = None,
        cookies: Optional[Dict[str, str]] = None,
        user: Optional[str] = None,
        remote_addr: str = "127.0.0.1",
        files: Optional[Dict[str, Any]] = None,
    ):
        self.path = str(path)
        self.method = method.upper()
        self.params: Dict[str, Any] = dict(params or {})
        self.cookies: Dict[str, str] = dict(cookies or {})
        self.files: Dict[str, Any] = dict(files or {})
        #: The authenticated user, or None for anonymous requests.  Set by
        #: the application's authentication step, a session middleware, or
        #: directly by tests.
        self.user = user
        self.remote_addr = remote_addr
        #: Environment-unique monotonic request id, stamped when the request
        #: first enters the runtime (see
        #: :func:`repro.core.request_context.enter_request`).  ``None``
        #: until then.
        self.id: Optional[int] = None
        #: The server-side session resolved for this request, if any (set by
        #: :class:`~repro.web.routing.SessionMiddleware`).
        self.session = None
        # One-shot (app, RouteMatch) cache filled by
        # WebApplication.is_native_async and consumed by the dispatch that
        # follows, so the route table is scanned once per request.
        self._route_match = None
        #: True when the front end serving this request can drain a
        #: streaming response body itself (the HTTP socket server).  The
        #: application then defers stream chunks instead of applying them
        #: eagerly — see ``HTTPOutputChannel.pending_stream``.
        self.stream_consumer = False
        #: The raw request body, when the request arrived over a transport
        #: that carries one (the socket server sets this; form-encoded
        #: bodies are additionally decoded into ``params``).
        self.body: Optional[bytes] = None

    def param(self, name: str, default: Any = None) -> Any:
        return self.params.get(name, default)

    def require(self, name: str) -> Any:
        if name not in self.params:
            from ..core.exceptions import HTTPError

            raise HTTPError(400, f"missing parameter {name!r}")
        return self.params[name]

    def mark_params(self, policy) -> None:
        """Attach ``policy`` to every string parameter and uploaded file."""
        for key, value in list(self.params.items()):
            if isinstance(value, str):
                self.params[key] = policy_add(TaintedStr(value), policy)
        for key, value in list(self.files.items()):
            if isinstance(value, (str, bytes)):
                self.files[key] = policy_add(value, policy)

    def __repr__(self) -> str:
        return f"Request({self.method} {self.path!r} user={self.user!r})"
