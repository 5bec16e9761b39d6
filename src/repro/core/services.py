"""Environment-scoped application services.

Applications built on RESIN keep singletons the policies need to consult —
phpBB's running board, a wiki's ACL engine, a site's user directory.  The
paper's PHP code reaches them through globals (``$Me`` in HotCRP); the first
Python port of that shape was a module global plus a context variable
(``repro.apps.phpbb.CURRENT_BOARD``), which breaks down as soon as several
environments serve concurrently in one interpreter: a policy evaluated for
environment A could observe the board of environment B.

:class:`ServiceRegistry` replaces that with a per-:class:`~repro.environment
.Environment` name → object mapping (``env.services``).  A policy that needs
its application singleton resolves it through the environment that owns the
channel being checked (``context.env``), so N boards in N environments never
interfere — the same scoping story as the per-environment
:class:`~repro.core.registry.FilterRegistry`.  The audit recorder is one
such service: :func:`recorder_for` finds an environment's recorder, and
only that environment's decisions reach it.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, List, Optional


class ServiceRegistry:
    """A thread-safe name → service mapping owned by one environment.

    Names are plain dotted strings (``"phpbb.board"``); values are arbitrary
    application objects.  Registration replaces any previous service under
    the same name (the common "the app re-initialized" shape); pass
    ``replace=False`` to make a collision an error instead.
    """

    __slots__ = ("env", "_services", "_lock")

    def __init__(self, env: Any = None):
        #: The environment owning this registry (``None`` for standalone use).
        self.env = env
        self._services: Dict[str, Any] = {}
        self._lock = threading.RLock()

    def register(self, name: str, service: Any, *, replace: bool = True) -> Any:
        """Publish ``service`` under ``name``; returns the service."""
        name = str(name)
        with self._lock:
            if not replace and name in self._services:
                raise LookupError(f"service {name!r} is already registered")
            self._services[name] = service
        return service

    def get(self, name: str, default: Any = None) -> Any:
        """The service registered under ``name``, or ``default``."""
        return self._services.get(str(name), default)

    def resolve(self, name: str) -> Any:
        """The service registered under ``name``; raises ``LookupError`` if
        nothing is registered (use :meth:`get` for the optional flavour)."""
        try:
            return self._services[str(name)]
        except KeyError:
            raise LookupError(
                f"no service {name!r} registered on this environment"
            ) from None

    def unregister(self, name: str) -> Any:
        """Remove and return the service under ``name`` (``None`` if absent)."""
        with self._lock:
            return self._services.pop(str(name), None)

    def names(self) -> List[str]:
        return sorted(self._services)

    def __contains__(self, name: str) -> bool:
        return str(name) in self._services

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._services)

    def __repr__(self) -> str:
        return f"ServiceRegistry({self.names()!r})"


#: The name an :class:`~repro.audit.recorder.AuditRecorder` registers under.
AUDIT_SERVICE = "audit.recorder"


def recorder_for(env: Any) -> Any:
    """The audit recorder registered on ``env``, or ``None`` (audit off,
    the common case).  Every audited boundary finds its recorder here."""
    services = getattr(env, "services", None)
    return None if services is None else services.get(AUDIT_SERVICE)


def resolve_service(name: str, context: Any = None, default: Any = None) -> Any:
    """Resolve an application service the way a policy should.

    Resolution order:

    1. the environment carried by ``context`` (``context.env``, set by the
       channel that built the filter context) — the channel being checked
       knows which deployment it belongs to;
    2. the environment of the active
       :class:`~repro.core.request_context.RequestContext`, if any;
    3. ``default``.

    This keeps ``export_check`` implementations free of globals: the board /
    site / wiki the policy consults is always the one owning the boundary
    the data is crossing.
    """
    for env in (_context_env(context), _request_env()):
        if env is None:
            continue
        services = getattr(env, "services", None)
        if services is None:
            continue
        service = services.get(name)
        if service is not None:
            return service
    return default


def _context_env(context: Any) -> Optional[Any]:
    return getattr(context, "env", None)


def _request_env() -> Optional[Any]:
    from .request_context import current_request

    rctx = current_request()
    return rctx.env if rctx is not None else None
