"""Filter objects.

A *filter object* (Section 3.2) is a generic interposition mechanism that
defines a data flow boundary.  Filters are attached to I/O channels (files,
sockets, pipes, HTTP output, e-mail, SQL, code import) or to function-call
interfaces.  When data crosses the boundary the runtime invokes the filter's
``filter_read`` / ``filter_write`` / ``filter_func`` method, which can check
or rewrite the in-transit data — typically by invoking ``export_check`` on
the policies of the data (the :class:`DefaultFilter` behaviour, Figure 3).

One loop runs ``export_check``, shared by :func:`check_export` (the step
default filters and application-defined filters take on write) and
:meth:`DefaultFilter.filter_func` (each tainted argument of a guarded
call).  It records each verdict when the context's environment has an
audit recorder (:func:`~repro.core.services.recorder_for`).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterable, List, Optional, Sequence, Type

from ..tracking.propagation import policies_of
from .context import FilterContext, as_context
from .policy import Policy
from .exceptions import FilterError, PolicyViolation
from .services import recorder_for


class Filter:
    """Base class for filter objects.

    A filter holds a :class:`~repro.core.context.FilterContext` describing
    the channel it guards.  Subclasses override one or more of the three
    interposition hooks; the base implementations pass data through
    unchanged.
    """

    def __init__(self, context: Optional[dict] = None):
        self.context: FilterContext = as_context(context)

    def filter_read(self, data: Any, offset: int = 0) -> Any:
        """Invoked when data enters the runtime through this boundary.

        May assign initial policies (e.g. de-serialize persistent policies
        from storage, or mark network input as untrusted) and may rewrite the
        data.  Returns the (possibly re-annotated) data.
        """
        return data

    def filter_write(self, data: Any, offset: int = 0) -> Any:
        """Invoked when data leaves the runtime through this boundary.

        Typically checks assertions (via the policies' ``export_check``) or
        serializes policies to persistent storage.  Returns the data that
        should actually be written.
        """
        return data

    def filter_func(self, func: Callable, args: tuple, kwargs: dict) -> Any:
        """Invoked in place of a guarded function call; checks and/or proxies
        the call.  The default simply forwards the call."""
        return func(*args, **kwargs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.context.describe()})"


class DefaultFilter(Filter):
    """The filter RESIN installs by default on every I/O channel.

    On write, it invokes ``export_check`` on every policy of the outgoing
    data, passing the filter's context (Figure 3 of the paper).  Data with no
    policy always passes.  On read it passes data through unchanged;
    channel-specific default filters (file, SQL) extend it to de-serialize
    persistent policies.
    """

    def filter_write(self, data: Any, offset: int = 0) -> Any:
        return check_export(data, self.context)

    def filter_func(self, func: Callable, args: tuple, kwargs: dict) -> Any:
        """Check every tainted argument: a violation records one deny for
        the failing argument, a pass one allow listing every checked
        policy."""
        context = self.context
        recorder = recorder_for(getattr(context, "env", None))
        checked: list = []
        for value in (*args, *kwargs.values()):
            policies = policies_of(value)
            if policies:
                _export_checks(policies, context, recorder, value)
                checked.extend(policies)
        if recorder is not None and checked:
            recorder.record("export", verdict="allow", context=context,
                            policies=checked)
        return func(*args, **kwargs)


def check_export(data: Any, context: Optional[dict] = None) -> Any:
    """Invoke ``export_check`` on every policy of ``data`` with ``context``.

    The enforcement step of :class:`DefaultFilter` on write, offered to
    application-defined filters too.  Data with no policy passes untouched.
    When ``context.env`` has an audit recorder, the verdict is recorded as
    an ``export`` event.  Raises whatever the failing policy raises
    (normally a :class:`~repro.core.exceptions.PolicyViolation`).
    """
    policies = policies_of(data)
    if not policies:
        return data
    context = as_context(context)
    recorder = recorder_for(context.env)
    _export_checks(policies, context, recorder, data)
    if recorder is not None:
        recorder.record("export", verdict="allow", context=context,
                        policies=policies,
                        rangemap=getattr(data, "rangemap", None))
    return data


def _export_checks(policies, context, recorder, value) -> None:
    """Run each policy's ``export_check``.  A violation is recorded as a
    deny of ``value`` when ``recorder`` is set, then re-raised unchanged:
    the recorder only observes the verdict."""
    try:
        for policy in policies:
            export_check = getattr(policy, "export_check", None)
            if callable(export_check):
                export_check(context)
    except PolicyViolation as exc:
        if recorder is not None:
            recorder.record("export", verdict="deny", context=context,
                            policies=policies,
                            rangemap=getattr(value, "rangemap", None),
                            violation=exc)
        raise


class DeclassifyFilter(Filter):
    """A filter that strips policies of given types from data flowing through.

    The paper's example (Section 3.2) is an encryption function: once data is
    encrypted it no longer needs its confidentiality policy, so the filter on
    the encryption boundary removes it.
    """

    def __init__(self, policy_types: Sequence[Type[Policy]],
                 context: Optional[dict] = None):
        super().__init__(context)
        self.policy_types = tuple(policy_types)

    def _strip(self, data: Any) -> Any:
        for policy_type in self.policy_types:
            remover = getattr(data, "without_policy_type", None)
            if callable(remover):
                data = remover(policy_type)
        return data

    def filter_write(self, data: Any, offset: int = 0) -> Any:
        return self._strip(data)

    def filter_read(self, data: Any, offset: int = 0) -> Any:
        return self._strip(data)

    def filter_func(self, func: Callable, args: tuple, kwargs: dict) -> Any:
        result = func(*args, **kwargs)
        return self._strip(result)


class FilterChain(Filter):
    """Several filters applied in order on the same boundary.

    An application can stack its own filter on top of the channel's default
    filter; writes traverse the chain first-to-last, reads last-to-first.
    """

    def __init__(self, filters: Iterable[Filter],
                 context: Optional[dict] = None):
        super().__init__(context)
        self.filters: List[Filter] = list(filters)
        for flt in self.filters:
            if not isinstance(flt, Filter):
                raise FilterError(f"not a Filter: {flt!r}")

    def append(self, flt: Filter) -> None:
        if not isinstance(flt, Filter):
            raise FilterError(f"not a Filter: {flt!r}")
        self.filters.append(flt)

    def filter_write(self, data: Any, offset: int = 0) -> Any:
        for flt in self.filters:
            data = flt.filter_write(data, offset)
        return data

    def filter_read(self, data: Any, offset: int = 0) -> Any:
        for flt in reversed(self.filters):
            data = flt.filter_read(data, offset)
        return data

    def filter_func(self, func: Callable, args: tuple, kwargs: dict) -> Any:
        """Call the first filter directly, with the rest of the chain as its
        function: one partial per later filter, the last one around
        ``func``."""
        filters = self.filters
        if not filters:
            return func(*args, **kwargs)
        call = func
        for flt in filters[:0:-1]:
            call = functools.partial(_apply_func_filter, flt, call)
        return filters[0].filter_func(call, args, kwargs)


def _apply_func_filter(flt: Filter, func: Callable, *args, **kwargs):
    return flt.filter_func(func, args, kwargs)


def guard_function(func: Callable, flt: Filter) -> Callable:
    """Attach a filter object to a function-call interface.

    Returns a wrapper that routes every call through ``flt.filter_func``
    (the function-call flavour of a data flow boundary, Table 3).
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        return flt.filter_func(func, args, kwargs)

    wrapper.__resin_filter__ = flt
    wrapper.__wrapped__ = func
    return wrapper


def filter_of(obj: Any) -> Optional[Filter]:
    """Return the filter object guarding ``obj``, if any.

    Channels expose their filter as ``obj.filter`` (the paper's examples use
    the spelling ``sock.__filter``); guarded functions expose it as
    ``func.__resin_filter__``.
    """
    flt = getattr(obj, "__resin_filter__", None)
    if isinstance(flt, Filter):
        return flt
    flt = getattr(obj, "filter", None)
    if isinstance(flt, Filter):
        return flt
    return None
