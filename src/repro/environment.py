"""The RESIN environment.

``Environment`` wires the substrates together the way a LAMP-style
deployment does: one filesystem, one database, one outgoing-mail transport,
one script interpreter, and per-request HTTP output channels.  The paper's
evaluation applications (:mod:`repro.apps`) are built on top of an
``Environment``; examples and benchmarks create one per scenario.

Each environment owns one :class:`~repro.core.registry.FilterRegistry`, the
only source of the default filter of every channel the environment (or its
substrates) creates.  An override installed on one environment's registry
never reaches another environment in the same process; that scoping is
what lets many tenants/requests run concurrently in one interpreter.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .channels.httpout import HTTPOutputChannel
from .channels.mail import MailTransport
from .channels.socketchan import PipeChannel, SocketChannel
from .channels.sqlchan import Database
from .core.exceptions import ChannelError
from .core.registry import FilterRegistry
from .core.services import ServiceRegistry
from .fs.resinfs import ResinFS
from .interp.interpreter import Interpreter
from .sql.engine import Engine
from .web.session import SessionStore


class Environment:
    """Everything an application needs to run under RESIN."""

    def __init__(self, persist_policies: bool = True):
        #: This environment's default-filter registry; a channel type it
        #: does not override gets the built-in ``DefaultFilter``.
        self.registry = FilterRegistry()
        #: Application services published for this environment (the running
        #: board, site, wiki, ... that policies consult).  One registry per
        #: environment, so singletons never leak across concurrent tenants.
        self.services = ServiceRegistry(env=self)
        self.fs = ResinFS(env=self)
        self.db = Database(Engine(), persist_policies=persist_policies,
                           env=self)
        self.mail = MailTransport(env=self)
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
        concurrent requests never get duplicates.
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

    # -- the current request's channel ------------------------------------------

    @property
    def http(self) -> HTTPOutputChannel:
        """The current request's HTTP channel.

        While a :class:`~repro.core.request_context.RequestContext` for this
        environment is bound (``with resin.request(...)``, or inside a
        dispatched ``WebApplication.handle``), this resolves to *that
        request's* output channel — concurrent requests each see their own.
        Outside a request there is no current channel: use
        :meth:`http_channel` for one.
        """
        from .core.request_context import current_request
        rctx = current_request()
        if rctx is not None and rctx.env is self and rctx.http is not None:
            return rctx.http
        raise ChannelError(
            "env.http is the current request's channel, and no request of "
            "this environment with an HTTP channel is bound; use "
            "env.http_channel() for a fresh channel")
