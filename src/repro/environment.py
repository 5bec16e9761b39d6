"""The RESIN environment.

``Environment`` wires the substrates together the way a LAMP-style
deployment does: one filesystem, one database, one outgoing-mail transport,
one script interpreter, and per-request HTTP output channels.  The paper's
evaluation applications (:mod:`repro.apps`) are built on top of an
``Environment``; examples and benchmarks create one per scenario.

Each environment owns a :class:`~repro.core.registry.FilterRegistry` that
supplies the default filter of every channel the environment (or its
substrates) creates.  The registry inherits from the process-wide default
registry, so overrides installed through the deprecated free functions
remain visible — but overrides installed on *this* environment's registry
never leak into other environments in the same process.  That scoping is
what lets many tenants/requests run concurrently in one interpreter.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .channels.httpout import HTTPOutputChannel
from .channels.mail import MailTransport
from .channels.socketchan import PipeChannel, SocketChannel
from .channels.sqlchan import Database
from .core.registry import FilterRegistry, default_registry
from .core.services import ServiceRegistry
from .fs.resinfs import ResinFS
from .interp.interpreter import Interpreter
from .sql.engine import Engine
from .web.session import SessionStore


class Environment:
    """Everything an application needs to run under RESIN."""

    def __init__(self, persist_policies: bool = True,
                 registry: Optional[FilterRegistry] = None):
        #: This environment's default-filter registry.  Falls back to the
        #: process-wide registry for channel types it does not override.
        self.registry = (registry if registry is not None
                         else FilterRegistry(parent=default_registry()))
        #: Application services published for this environment (the running
        #: board, site, wiki, ... that policies consult).  One registry per
        #: environment, so singletons never leak across concurrent tenants.
        self.services = ServiceRegistry(env=self)
        self.fs = ResinFS(registry=self.registry, env=self)
        self.db = Database(Engine(), persist_policies=persist_policies,
                           registry=self.registry, env=self)
        self.mail = MailTransport(registry=self.registry, env=self)
        self.sessions = SessionStore()
        self.interpreter = Interpreter(self)
        #: Monotonic request-id source (see :meth:`next_request_id`).
        self._request_ids = itertools.count(1)

    def next_request_id(self) -> int:
        """The next environment-unique request id.

        Stamped into :class:`~repro.core.request_context.RequestContext`
        when a request enters (every front end goes through
        :func:`~repro.core.request_context.enter_request`; ``Resin.request``
        stamps its own) and onto the web ``Request`` itself, so middleware
        log lines, audit events and policy violations all correlate on one
        number.  ``itertools.count`` advances atomically under the GIL, so
        concurrent dispatchers never hand out duplicates.
        """
        return next(self._request_ids)

    # -- channel factories ------------------------------------------------------

    def http_channel(self, user: Optional[str] = None,
                     priv_chair: bool = False,
                     **context) -> HTTPOutputChannel:
        """A fresh HTTP output channel for one response.

        This is the canonical way to get an HTTP boundary: one channel per
        request, so no user or policy state carries over between responses.
        """
        channel = HTTPOutputChannel(context, env=self)
        channel.set_user(user, priv_chair=priv_chair)
        return channel

    def socket(self, peer: Optional[str] = None, **context) -> SocketChannel:
        return SocketChannel(peer, context, env=self)

    def pipe(self, command: Optional[str] = None, **context) -> PipeChannel:
        return PipeChannel(command, context, env=self)

    # -- convenience shims used by examples -------------------------------------------

    @property
    def http(self) -> HTTPOutputChannel:
        """The current request's HTTP channel, or a shared demo channel.

        While a :class:`~repro.core.request_context.RequestContext` for this
        environment is bound (``with resin.request(...)``, or inside a
        dispatched ``WebApplication.handle``), this resolves to *that
        request's* output channel — concurrent requests each see their own.

        Outside any request it falls back to a lazily-created shared channel
        so the README quickstart can say ``env.http.write(...)``.  Because
        that fallback is shared, user and policy state written to it
        accumulates across scenarios — call :meth:`reset_http` between demo
        scenarios, or use :meth:`http_channel` and keep one channel per
        request.
        """
        from .core.request_context import current_request
        rctx = current_request()
        if rctx is not None and rctx.env is self and rctx.http is not None:
            return rctx.http
        if self._shared_http is None:
            self._shared_http = self.http_channel()
        return self._shared_http

    _shared_http: Optional[HTTPOutputChannel] = None

    def reset_http(self) -> None:
        """Drop the shared demo channel so the next ``env.http`` access
        starts from a clean context and an empty body."""
        self._shared_http = None
