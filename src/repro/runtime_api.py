"""The fluent, environment-scoped RESIN runtime API.

:class:`Resin` is the single entry point applications use to talk to the
runtime.  It wraps one :class:`~repro.environment.Environment` and exposes
the Table-3 primitives (``policy_add`` / ``policy_get`` / filter objects)
behind a fluent facade whose state is *scoped to that environment* — nothing
a ``Resin`` instance does leaks into other environments in the process::

    resin = Resin()                                   # fresh environment
    pw = resin.taint("s3cret", PasswordPolicy("a@b.c"))
    pw = resin.policy(PasswordPolicy, "a@b.c").on("s3cret")   # equivalent

    resin.assertion("script-injection").install()     # this env only
    resin.assertion("sql-injection", strategy="structure").install()

    with resin.request(user="alice@b.c") as http:     # per-request channel
        http.write(page_html)                         # buffered; discarded
                                                      # if an assertion fires

Table-3 name mapping (see ``docs/API.md`` for the full table):

=====================================  =====================================
Table 3 / free function                ``Resin`` facade
=====================================  =====================================
``policy_add(d, p)``                   ``resin.taint(d, p)``
``policy_remove(d, p)``                ``resin.remove(d, p)``
``policy_get(d)``                      ``resin.policies(d)``
``untaint(d)``                         ``resin.declassify(d)``
``set_default_filter_factory(t, f)``   ``resin.set_default_filter(t, f)``
(free function removed)
``reset_default_filters()``            ``resin.reset_filters()``
(free function removed)
channel constructors                   ``resin.channel(kind, ...)``
``install_script_injection_assertion`` ``resin.assertion("script-injection")
                                       .install()``
=====================================  =====================================
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Optional, Type

from .core.api import (has_policy, policy_add, policy_get, policy_remove,
                       taint as _taint, untaint as _untaint)
from .core.exceptions import FilterError
from .core.filter import Filter
from .core.policy import Policy
from .core.policyset import PolicySet
from .core.registry import FilterRegistry
from .core.request_context import (RequestContext, current_request,
                                   stamp_request_id)
from .environment import Environment

__all__ = ["Resin", "BoundPolicy", "Assertion", "RequestScope"]


class BoundPolicy:
    """A policy class plus constructor arguments, ready to apply to data.

    Built by :meth:`Resin.policy`; call :meth:`on` to attach a fresh policy
    instance to a value (returning the annotated value), or :meth:`build` to
    get the policy object itself.
    """

    def __init__(self, policy_cls: Type[Policy], *args: Any, **kwargs: Any):
        if not (isinstance(policy_cls, type)
                and issubclass(policy_cls, Policy)):
            raise TypeError(
                f"expected a Policy subclass, got {policy_cls!r}")
        self.policy_cls = policy_cls
        self.args = args
        self.kwargs = kwargs

    def build(self) -> Policy:
        return self.policy_cls(*self.args, **self.kwargs)

    def on(self, value: Any, start: int = 0,
           stop: Optional[int] = None) -> Any:
        """Attach a fresh policy instance to ``value`` (optionally to the
        character/byte range ``[start, stop)``)."""
        return policy_add(value, self.build(), start, stop)

    def __repr__(self) -> str:
        return f"BoundPolicy({self.policy_cls.__name__})"


class Assertion:
    """One named data-flow assertion, scoped to a ``Resin`` environment.

    Built by :meth:`Resin.assertion`; :meth:`install` applies it.  Channel-
    scoped assertions (XSS, response splitting, …) take the target channel —
    or a :class:`~repro.web.app.WebApplication`, which stacks the filter on
    every response — via ``on=``/``install(target)``.  Script injection
    installs on this environment, or on the one ``install(target)`` names.
    """

    def __init__(self, resin: "Resin", name: str, **options: Any):
        if name not in _ASSERTIONS:
            raise KeyError(
                f"unknown assertion {name!r}; known: "
                f"{', '.join(sorted(_ASSERTIONS))}")
        self.resin = resin
        self.name = name
        self.options = dict(options)
        self._installed_registries: list = []

    def install(self, target: Any = None) -> "Assertion":
        """Apply the assertion to this environment (or to ``target``)."""
        registry = _ASSERTIONS[self.name](self.resin, target,
                                          dict(self.options))
        if registry is not None:
            self._installed_registries.append(registry)
        return self

    def uninstall(self) -> None:
        """Undo a registry-level assertion (currently: script-injection) on
        every registry this ``Assertion`` object installed it on."""
        if self.name != "script-injection":
            raise FilterError(
                f"assertion {self.name!r} stacks filters on channels and "
                "cannot be uninstalled generically")
        for registry in (self._installed_registries
                         or [self.resin.registry]):
            registry.reset("code")
        self._installed_registries = []


def _install_script_injection(resin: "Resin", target: Any,
                              options: Dict[str, Any]):
    from .security.assertions import (approve_code_file,
                                      install_script_injection_assertion)
    # An Environment target, or the .env of a Resin or a WebApplication.
    env = resin.env if target is None else getattr(target, "env", target)
    if not isinstance(env, Environment):
        raise FilterError(
            "script-injection installs on an Environment, a Resin or a "
            f"WebApplication, not {type(target).__name__}")
    install_script_injection_assertion(env)
    for path in options.get("approve", ()):
        approve_code_file(env.fs, path)
    return env.registry


def _install_sql_guard(resin: "Resin", target: Any,
                       options: Dict[str, Any]) -> None:
    from .security.assertions import SQLGuardFilter
    db = target if target is not None else resin.env.db
    db.add_filter(SQLGuardFilter(options.get("strategy", "structure")))


def _install_sql_auto_sanitize(resin: "Resin", target: Any,
                               options: Dict[str, Any]) -> None:
    from .security.assertions import AutoSanitizingSQLFilter
    db = target if target is not None else resin.env.db
    db.add_filter(AutoSanitizingSQLFilter())


def _channel_filter_installer(filter_factory: Callable[[Dict[str, Any]], Filter]):
    def install(resin: "Resin", target: Any, options: Dict[str, Any]) -> None:
        target = target if target is not None else options.get("on")
        if target is None:
            raise FilterError(
                "this assertion guards a specific channel; pass the channel "
                "(or a WebApplication) to install()")
        flt = filter_factory(options)
        add_response_filter = getattr(target, "add_response_filter", None)
        if callable(add_response_filter):     # a WebApplication
            add_response_filter(flt)
        else:
            target.add_filter(flt)
    return install


def _xss_filter(options: Dict[str, Any]) -> Filter:
    from .security.assertions import HTMLGuardFilter, HTMLStructureGuardFilter
    if options.get("strategy", "sanitizer") == "structure":
        return HTMLStructureGuardFilter()
    return HTMLGuardFilter()


def _response_splitting_filter(options: Dict[str, Any]) -> Filter:
    from .security.assertions import ResponseSplittingFilter
    return ResponseSplittingFilter()


def _json_filter(options: Dict[str, Any]) -> Filter:
    from .security.assertions import JSONGuardFilter
    return JSONGuardFilter()


def _untrusted_input_filter(options: Dict[str, Any]) -> Filter:
    from .security.assertions import UntrustedInputFilter
    return UntrustedInputFilter(options.get("source", "socket"))


#: name -> installer(resin, target, options)
_ASSERTIONS: Dict[str, Callable[["Resin", Any, Dict[str, Any]], None]] = {
    "script-injection": _install_script_injection,
    "sql-injection": _install_sql_guard,
    "sql-auto-sanitize": _install_sql_auto_sanitize,
    "xss": _channel_filter_installer(_xss_filter),
    "response-splitting": _channel_filter_installer(_response_splitting_filter),
    "json-guard": _channel_filter_installer(_json_filter),
    "untrusted-input": _channel_filter_installer(_untrusted_input_filter),
}


class RequestScope:
    """Context manager for one request's boundary state.

    ``__enter__`` binds a fresh
    :class:`~repro.core.request_context.RequestContext` to the calling
    thread, creates an HTTP output channel for the request's user, pushes the
    user into the (request-local) filesystem context, and starts output
    buffering on the channel.  Filters installed on the environment's
    database while the scope is active join the request's overlay and pop on
    exit.  On clean exit the buffer is released to the browser; if an
    assertion (or anything else) raises, the buffered output is discarded —
    the partial page never crosses the boundary — and the exception
    propagates.
    """

    def __init__(self, resin: "Resin", user: Optional[str] = None,
                 buffered: bool = True, priv_chair: bool = False,
                 **context: Any):
        self.resin = resin
        self.user = user
        self.buffered = buffered
        self.priv_chair = priv_chair
        self.context = context
        self.http = None
        self.request_context: Optional[RequestContext] = None

    def __enter__(self):
        env = self.resin.env
        # Binding the RequestContext (a contextvar) replaces the old
        # save/mutate/restore dance on shared substrate attributes: nested
        # scopes — or application code that scopes its own requests — get
        # the enclosing request's state back automatically on exit, and
        # concurrent requests on other threads are never disturbed.
        self.request_context = RequestContext(
            env=env, user=self.user, priv_chair=self.priv_chair,
            request_id=stamp_request_id(env), **self.context)
        self.request_context.__enter__()
        try:
            self.http = env.http_channel(user=self.user,
                                         priv_chair=self.priv_chair,
                                         **self.context)
            self.request_context.http = self.http
            if self.buffered:
                self.http.start_buffering()
        except BaseException:
            self.request_context.__exit__(None, None, None)
            self.request_context = None
            raise
        return self.http

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            if self.buffered:
                if exc_type is None:
                    self.http.release_buffer()
                else:
                    self.http.discard_buffer()
        finally:
            if self.request_context is not None:
                self.request_context.__exit__(exc_type, exc, tb)
                self.request_context = None
        return False


class Resin:
    """The fluent, environment-scoped runtime facade.

    Wraps an :class:`~repro.environment.Environment` (creating a fresh one
    when none is given); every operation resolves through that environment's
    :class:`~repro.core.registry.FilterRegistry`, never through process-wide
    state.
    """

    def __init__(self, env: Optional[Environment] = None, **env_kwargs: Any):
        self.env = env if env is not None else Environment(**env_kwargs)

    # -- durable storage ---------------------------------------------------------

    @classmethod
    def open(cls, path: str, *, sync: str = "fsync",
             tolerant: bool = False, checkpoint_bytes: Optional[int] = None,
             audit: Optional[bool] = None,
             **env_kwargs: Any) -> "Resin":
        """Open (or create) a durable environment stored at ``path``.

        One line does the whole open-recover-resume cycle: build a fresh
        environment, load the newest snapshot under ``path``, replay the WAL
        tail (tolerating a torn final record), and attach the
        :class:`~repro.storage.durability.Durability` service so every
        subsequent table and filesystem mutation — with its policies — is
        logged::

            resin = Resin.open("/var/lib/myapp")
            resin.db.query("INSERT INTO ...")     # durable
            resin.durability.close()              # flush on shutdown

        ``tolerant=True`` loads records referencing unknown policy/filter
        classes as deny-by-default placeholders instead of failing recovery.

        ``audit`` controls the flow-provenance recorder: ``True`` opens
        (recovering) the audit ledger under ``<path>/audit``; ``None`` (the
        default) reopens it only if a previous run created one — so a store
        that was auditing resumes auditing after restart; ``False`` leaves
        audit off.
        """
        from .storage.durability import DEFAULT_CHECKPOINT_BYTES, Durability
        if checkpoint_bytes is None:
            checkpoint_bytes = DEFAULT_CHECKPOINT_BYTES
        resin = cls(**env_kwargs)
        Durability.open(resin.env, path, sync=sync,
                        checkpoint_bytes=checkpoint_bytes, tolerant=tolerant)
        audit_dir = os.path.join(path, "audit")
        if audit is True or (audit is None and os.path.isdir(audit_dir)):
            resin.enable_audit(audit_dir)
        return resin

    @property
    def durability(self):
        """The :class:`~repro.storage.durability.Durability` service attached
        to this environment, or ``None`` (sugar for
        ``resin.services.get("storage.durability")``)."""
        from .storage.durability import SERVICE_NAME
        return self.env.services.get(SERVICE_NAME)

    # -- audit / provenance ------------------------------------------------------

    @property
    def audit(self):
        """The :class:`~repro.audit.recorder.AuditRecorder` observing this
        environment, or ``None`` (sugar for
        ``resin.services.get("audit.recorder")``).  Query it after the fact::

            resin.audit.events(policy=PasswordPolicy, verdict="deny")
            resin.audit.provenance_of(password_policy)
        """
        from .audit.recorder import SERVICE_NAME
        return self.env.services.get(SERVICE_NAME)

    def enable_audit(self, path: Optional[str] = None,
                     **recorder_kwargs: Any):
        """Attach a flow-provenance recorder to this environment.

        With ``path``, events land in an append-only
        :class:`~repro.audit.ledger.AuditLedger` under that directory
        (recovered in place if it already exists); without, they stay in a
        bounded in-memory :class:`~repro.audit.ledger.MemoryLedger`.  From
        then on this environment's export checks (every
        :func:`~repro.core.filter.check_export`, whether a default filter or
        an application-defined filter runs it), declassifications,
        filesystem xattr-policy denials and ``__format__`` policy drops are
        recorded — observation only, verdicts never change.  A filter that
        refuses data without an export check (the ``sql-injection`` and
        ``xss`` guards) leaves no deny event, only the ``allow`` its
        default filter recorded first.  Returns the recorder (also
        reachable as ``resin.audit``).
        """
        from .audit.ledger import AuditLedger, MemoryLedger
        from .audit.recorder import AuditRecorder
        existing = self.audit
        if existing is not None:
            return existing
        queue_limit = recorder_kwargs.pop("queue_limit", 4096)
        if path is not None:
            ledger = AuditLedger(path, **recorder_kwargs)
        else:
            ledger = MemoryLedger(**recorder_kwargs)
        return AuditRecorder(ledger, queue_limit=queue_limit).attach(self.env)

    # -- handy substrate accessors ----------------------------------------------

    @property
    def registry(self) -> FilterRegistry:
        return self.env.registry

    @property
    def fs(self):
        return self.env.fs

    @property
    def db(self):
        return self.env.db

    @property
    def mail(self):
        return self.env.mail

    @property
    def interpreter(self):
        return self.env.interpreter

    @property
    def services(self):
        """This environment's application-service registry
        (:class:`~repro.core.services.ServiceRegistry`)."""
        return self.env.services

    def service(self, name: str, default: Any = None) -> Any:
        """The application service ``name`` on this environment, or
        ``default`` — sugar for ``resin.services.get(name)``."""
        return self.env.services.get(name, default)

    def create_index(self, table: str, column: str, kind: str = "sorted",
                     name: Optional[str] = None):
        """Declare a secondary index on ``table.column`` — sugar for
        ``resin.db.create_index(...)``.  Durable engines WAL-log the
        definition and rebuild the index on recovery."""
        return self.env.db.create_index(table, column, kind, name)

    # -- taint / policy primitives (Table 3) ------------------------------------

    def taint(self, data: Any, *policies: Policy) -> Any:
        """Attach one or more policy objects to ``data`` (``policy_add``)."""
        return _taint(data, *policies)

    def remove(self, data: Any, policy: Policy) -> Any:
        """Remove ``policy`` from ``data``'s policy set (``policy_remove``)."""
        return policy_remove(data, policy)

    def policies(self, data: Any) -> PolicySet:
        """The policy set of ``data`` (``policy_get``)."""
        return policy_get(data)

    def has_policy(self, data: Any, policy_type,
                   *, every_char: bool = False) -> bool:
        return has_policy(data, policy_type, every_char=every_char)

    def declassify(self, data: Any) -> Any:
        """A plain, policy-free copy of ``data`` (``untaint``).  Only
        boundary code should call this.

        When an audit recorder is attached, every declassification is
        recorded with the policies being stripped and the taint provenance
        of the data — declassify is the one legal way secrets shed their
        protection, so it is exactly what forensics needs to see.
        """
        from .audit.recorder import recorder_for
        recorder = recorder_for(self.env)
        if recorder is not None:
            policies = policy_get(data)
            if policies:
                recorder.record("declassify", verdict="allow",
                                policies=policies,
                                rangemap=getattr(data, "rangemap", None))
        return _untaint(data)

    def policy(self, policy_cls: Type[Policy], *args: Any,
               **kwargs: Any) -> BoundPolicy:
        """Fluent policy application: ``resin.policy(PasswordPolicy,
        "a@b.c").on(password)``."""
        return BoundPolicy(policy_cls, *args, **kwargs)

    # -- channels ---------------------------------------------------------------

    def channel(self, kind: str, *args: Any, **kwargs: Any):
        """Create a channel of ``kind`` bound to this environment.

        ``kind`` is one of ``"http"``, ``"socket"``, ``"pipe"``, ``"email"``,
        ``"sql"``, ``"code"``; positional/keyword arguments match the
        corresponding channel constructor (e.g. the recipient address for
        ``"email"``, ``user=`` for ``"http"``).
        """
        env = self.env
        if kind == "http":
            return env.http_channel(*args, **kwargs)
        if kind == "socket":
            return env.socket(*args, **kwargs)
        if kind == "pipe":
            return env.pipe(*args, **kwargs)
        if kind == "email":
            from .channels.mail import EmailChannel
            return EmailChannel(*args, env=env, **kwargs)
        if kind == "sql":
            if args or kwargs:
                raise FilterError(
                    "channel('sql') returns this environment's shared "
                    "Database and takes no arguments; construct "
                    "repro.channels.sqlchan.Database(env=...) directly "
                    "for a differently-configured connection")
            return env.db
        if kind == "code":
            return env.interpreter.new_channel(*args, **kwargs)
        raise FilterError(f"unknown channel kind {kind!r}")

    # -- default-filter registry (scoped) ---------------------------------------

    def set_default_filter(self, channel_type: str, factory) -> "Resin":
        """Scoped override of a default filter factory: affects only
        channels created through this environment."""
        self.registry.set_default_filter_factory(channel_type, factory)
        return self

    def reset_filters(self, channel_type: Optional[str] = None) -> "Resin":
        """Reset this environment's default-filter overrides."""
        self.registry.reset(channel_type)
        return self

    # -- assertions -------------------------------------------------------------

    def assertion(self, name: str, **options: Any) -> Assertion:
        """A named assertion: ``resin.assertion("script-injection")
        .install()``.  See :data:`_ASSERTIONS` for the catalogue."""
        return Assertion(self, name, **options)

    def approve_code(self, path: str,
                     approved_by: str = "installer") -> "Resin":
        """Tag a stored file as approved code (Figure 6's
        ``make_file_executable``)."""
        from .security.assertions import approve_code_file
        approve_code_file(self.env.fs, path, approved_by)
        return self

    # -- request scoping --------------------------------------------------------

    def request(self, user: Optional[str] = None, *, buffered: bool = True,
                priv_chair: bool = False, **context: Any) -> RequestScope:
        """Scope one request: ``with resin.request(user="alice") as http:``.

        Yields a fresh, buffered HTTP output channel and propagates the user
        into the filesystem request context for the duration of the block.
        """
        return RequestScope(self, user=user, buffered=buffered,
                            priv_chair=priv_chair, **context)

    @property
    def current_request(self) -> Optional[RequestContext]:
        """The :class:`~repro.core.request_context.RequestContext` bound to
        the calling thread for *this* environment, or ``None``."""
        rctx = current_request()
        if rctx is not None and rctx.env is self.env:
            return rctx
        return None

    def app(self, name: str = "app"):
        """A :class:`~repro.web.app.WebApplication` bound to this
        environment — the front door of the fluent API::

            app = resin.app("wiki")

            @app.route("/page/<path:name>", methods=["GET"])
            async def page(request, response, name):
                ...
        """
        from .web.app import WebApplication
        return WebApplication(self.env, name=name)

    def async_dispatcher(self, app, workers: int = 4,
                         max_in_flight: Optional[int] = None):
        """An :class:`~repro.server.async_dispatcher.AsyncDispatcher`
        serving ``app`` from this environment on an asyncio event loop, with
        up to ``workers`` worker threads and at most ``max_in_flight`` admitted
        requests (backpressure)."""
        from .server.async_dispatcher import AsyncDispatcher
        return AsyncDispatcher(app, workers=workers,
                               max_in_flight=max_in_flight)

    def serve_async(self, app, host: str = "127.0.0.1", port: int = 0,
                    **options: Any):
        """A real HTTP/1.1 socket server
        (:class:`~repro.server.http.HTTPServer`) in front of ``app``, not
        yet bound — ``async with resin.serve_async(app) as server:`` binds
        the listening socket and drains it on exit.  ``options`` are the
        ``HTTPServer`` keyword arguments (workers, timeouts, parser limits,
        ``user_header`` for trusted harnesses, ...).  To serve a durable
        store, build the app on :meth:`Resin.open`."""
        from .server.http import HTTPServer
        return HTTPServer(app, host=host, port=port, **options)

    def serve(self, app, host: str = "127.0.0.1", port: int = 0,
              **options: Any):
        """Serve ``app`` over a loopback (or given) socket from a
        background event-loop thread, for synchronous callers::

            resin = Resin.open("/var/lib/app")     # or Resin() in memory
            with resin.serve(app) as handle:
                conn = http.client.HTTPConnection("127.0.0.1", handle.port)

        Returns a started :class:`~repro.server.http.ServerHandle`; leaving
        the ``with`` block (or calling ``handle.close()``) drains the
        server gracefully."""
        from .server.http.server import ServerHandle
        return ServerHandle(self.serve_async(app, host=host, port=port,
                                             **options)).start()

    def __repr__(self) -> str:
        return f"Resin({self.registry!r})"
