"""Socket and pipe channels.

These are the simplest boundary channels: whatever is written to them is
considered to have left the runtime.  The default filter invokes
``export_check`` on every policy of outgoing data (Figure 3); data read from
a socket can be marked untrusted by stacking a
:class:`repro.security.assertions.UntrustedInputFilter` on the channel (the
whois-response example of Section 6.3).
"""

from __future__ import annotations

from typing import Optional

from .base import CollectingChannel


class SocketChannel(CollectingChannel):
    """A network socket endpoint."""

    channel_type = "socket"

    def __init__(self, peer: Optional[str] = None,
                 context: Optional[dict] = None, *, env=None):
        ctx = dict(context or {})
        if peer is not None:
            ctx.setdefault("peer", peer)
        super().__init__(ctx, env=env)
        self.peer = peer


class PipeChannel(CollectingChannel):
    """A pipe to another process (e.g. the sendmail pipe of Figure 1)."""

    channel_type = "pipe"

    def __init__(self, command: Optional[str] = None,
                 context: Optional[dict] = None, *, env=None):
        ctx = dict(context or {})
        if command is not None:
            ctx.setdefault("command", command)
        super().__init__(ctx, env=env)
        self.command = command
