"""Code-import channel.

RESIN treats the interpreter's execution of script code as another data flow
channel, with its own filter object (Section 3.2.2).  Everything the
interpreter is about to execute — whether reached through an include
statement, ``eval``, or a direct request for an uploaded script — flows
through this channel's ``filter_read`` first.

The built-in default filter is permissive (it runs ``export_check`` but
allows unannotated data).  The script-injection assertion replaces it with
:class:`repro.interp.filters.InterpreterFilter`, which requires every
character of the code to carry a ``CodeApproval`` policy.
"""

from __future__ import annotations

from typing import Optional

from ..tracking.propagation import to_tainted_str
from ..tracking.tainted_str import TaintedStr
from .base import Channel


class CodeChannel(Channel):
    """The boundary through which code enters the interpreter."""

    channel_type = "code"

    def load(self, source, origin: Optional[str] = None) -> TaintedStr:
        """Run ``source`` through the import boundary and return the code the
        interpreter may execute.  Raises if the channel's filter rejects it."""
        source = to_tainted_str(source)
        if origin is not None:
            self.context["origin"] = origin
        return self.filter.filter_read(source)

    def _transmit(self, data) -> None:  # pragma: no cover - code flows inward
        raise NotImplementedError("code channels are read-only")

    def _receive(self, size: Optional[int] = None):
        return TaintedStr("")
