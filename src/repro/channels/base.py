"""Channel abstraction.

A *channel* is an I/O endpoint at the edge of the runtime: a socket, pipe,
HTTP response stream, outgoing e-mail, SQL connection, or the interpreter's
code-import path.  Every channel is guarded by a filter chain whose first
element is the channel type's default filter (Section 3.2.1), so that data
cannot leave or enter the runtime without traversing a filter object.

A channel constructed with ``env=`` takes its default filter from that
environment's :class:`~repro.core.registry.FilterRegistry`; one constructed
without an environment gets the built-in ``DefaultFilter``.

Applications access the channel's filter as ``channel.filter`` (the paper's
examples spell it ``sock.__filter``) and may mutate its ``context`` or stack
additional filters on top of the default one.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..core.context import FilterContext
from ..core.exceptions import ChannelError
from ..core.filter import Filter, FilterChain
from ..core.registry import default_filter


class Channel:
    """Base class for I/O channels.

    ``env`` is the owning environment, whose registry supplies the default
    filter; without one the channel gets the built-in ``DefaultFilter``.
    """

    #: Channel type used to pick the default filter and reported in contexts.
    channel_type = "socket"

    def __init__(self, context: Optional[dict] = None, *, env=None):
        ctx = FilterContext(type=self.channel_type)
        if context:
            ctx.update(context)
        self.env = env
        if env is not None:
            # Stamp the owning environment on the filter context (as an
            # attribute, not a mapping key) so policies can resolve
            # environment services and request-scoped helpers can ignore
            # foreign-environment requests.
            ctx.env = env
        default = default_filter(env, self.channel_type, ctx)
        self.filter = FilterChain([default], ctx)
        self.context = ctx
        self.closed = False

    # -- filter management -----------------------------------------------------

    def add_filter(self, flt: Filter) -> None:
        """Stack an application filter on top of the default filter."""
        if flt.context is not self.context:
            merged = dict(self.context)
            merged.update(flt.context)
            flt.context = self.context
            self.context.update(merged)
        self.filter.append(flt)

    # -- data flow -----------------------------------------------------------------

    def write(self, data: Any) -> int:
        """Send ``data`` out through the channel (via the filter chain)."""
        self._check_open()
        data = self.filter.filter_write(data)
        self._transmit(data)
        return len(data) if hasattr(data, "__len__") else 1

    def read(self, size: Optional[int] = None) -> Any:
        """Receive data from the channel (via the filter chain)."""
        self._check_open()
        data = self._receive(size)
        return self.filter.filter_read(data)

    def close(self) -> None:
        self.closed = True

    # -- to be provided by subclasses --------------------------------------------------

    def _transmit(self, data: Any) -> None:
        raise NotImplementedError

    def _receive(self, size: Optional[int] = None) -> Any:
        raise NotImplementedError

    def _check_open(self) -> None:
        if self.closed:
            raise ChannelError(
                f"{type(self).__name__} is closed")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.context.describe()})"


class CollectingChannel(Channel):
    """A channel that records everything transmitted through it.

    The recorded data represents what the outside world (browser, mail
    server, peer process) would have received; tests and the evaluation
    harness inspect it to decide whether an attack succeeded.
    """

    def __init__(self, context: Optional[dict] = None, *, env=None):
        super().__init__(context, env=env)
        self.sent: List[Any] = []
        self._incoming: List[Any] = []

    def _transmit(self, data: Any) -> None:
        self.sent.append(data)

    def feed(self, data: Any) -> None:
        """Queue data as if it arrived from the outside world."""
        self._incoming.append(data)

    def _receive(self, size: Optional[int] = None) -> Any:
        if not self._incoming:
            return ""
        return self._incoming.pop(0)

    def transcript(self) -> str:
        """Everything sent, concatenated as text (policy-free view — this is
        what actually crossed the boundary)."""
        pieces = []
        for chunk in self.sent:
            if isinstance(chunk, bytes):
                pieces.append(bytes(chunk).decode("utf-8", "replace"))
            else:
                pieces.append(str(chunk))
        return "".join(pieces)
