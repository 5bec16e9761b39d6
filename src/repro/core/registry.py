"""Environment-scoped default-filter registries.

Every channel is born with a default filter chosen by its channel type
(Section 3.2.1).  ``FilterRegistry`` is that table, and each
:class:`~repro.environment.Environment` owns exactly one: every channel
constructor builds its default filter through the registry of the
environment that owns it (:func:`default_filter`), so installing the
script-injection assertion for one tenant replaces the ``code``-channel
filter for that tenant only.

There is no process-wide table.  A channel built without an environment
gets the built-in :class:`~repro.core.filter.DefaultFilter`.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Tuple

from .context import FilterContext, as_context
from .exceptions import FilterError
from .filter import DefaultFilter, Filter

__all__ = ["FilterRegistry", "default_filter", "CHANNEL_TYPES",
           "FilterFactory"]

FilterFactory = Callable[[FilterContext], Filter]

#: Channel types known to the runtime.  Applications may register additional
#: types; these are the ones the paper's default boundary covers.
CHANNEL_TYPES = ("file", "socket", "pipe", "http", "email", "sql", "code")


class FilterRegistry:
    """One environment's mapping from channel type to default filter
    factory; a type with no factory gets the built-in ``DefaultFilter``."""

    __slots__ = ("_factories", "_lock")

    def __init__(self):
        self._factories: Dict[str, FilterFactory] = {}
        # Registries are written at deployment time but read on every channel
        # construction, possibly from many request threads; the lock keeps
        # the writes atomic (reads stay lock-free — dict lookups are atomic).
        self._lock = threading.Lock()

    # -- factory management ------------------------------------------------------

    def set_default_filter_factory(self, channel_type: str,
                                   factory: FilterFactory) -> None:
        """Override the default filter installed on new channels of
        ``channel_type`` created through this registry.

        The paper's script-injection assertion does exactly this for the
        ``code`` channel: it replaces the permissive default filter with one
        that requires a ``CodeApproval`` policy (Section 5.2).
        """
        if not callable(factory):
            raise FilterError("filter factory must be callable")
        with self._lock:
            self._factories[channel_type] = factory

    def get_default_filter_factory(self, channel_type: str) -> FilterFactory:
        return self._factories.get(channel_type, DefaultFilter)

    def overrides(self) -> Tuple[str, ...]:
        """The channel types with a factory override."""
        with self._lock:
            return tuple(sorted(self._factories))

    def reset(self, channel_type: Optional[str] = None) -> None:
        """Drop every override, or with ``channel_type`` only that one."""
        with self._lock:
            if channel_type is None:
                self._factories.clear()
            else:
                self._factories.pop(channel_type, None)

    # -- filter construction ------------------------------------------------------

    def make_default_filter(self, channel_type: str,
                            context: Optional[dict] = None) -> Filter:
        """Create the default filter for a new channel of ``channel_type``."""
        ctx = as_context(context)
        ctx.setdefault("type", channel_type)
        flt = self.get_default_filter_factory(channel_type)(ctx)
        if not isinstance(flt, Filter):
            raise FilterError(
                f"default filter factory for {channel_type!r} returned "
                f"{type(flt).__name__}, expected a Filter")
        if flt.context is not ctx:
            # The factory built its own context.  Merge its keys (including
            # an explicit "type") into the runtime-prepared context *in
            # place* and share that one object, so that later channel
            # context mutations (e.g. HTTPOutputChannel.set_user) stay
            # visible to the filter.  The old code built a third, divorced
            # dict here, losing those mutations.
            for key, value in flt.context.items():
                ctx[key] = value
            flt.context = ctx
        return flt

    def __repr__(self) -> str:
        return "FilterRegistry({%s})" % ", ".join(sorted(self._factories))


def default_filter(env, channel_type: str, context: Optional[dict]) -> Filter:
    """The default filter of a new ``channel_type`` channel owned by ``env``:
    built through ``env.registry``, or the built-in ``DefaultFilter`` for a
    channel with no environment."""
    if env is not None:
        return env.registry.make_default_filter(channel_type, context)
    ctx = as_context(context)
    ctx.setdefault("type", channel_type)
    return DefaultFilter(ctx)
