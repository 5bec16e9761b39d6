"""HTTP output channel.

Represents the response stream back to a browser.  It is the boundary most
of the paper's assertions care about (password disclosure, ACL checks,
cross-site scripting), and it implements the output-buffering mechanism of
Section 5.5 so applications can drive access checks from assertion
exceptions.

Body writes, header values and a discarded buffer's alternate output all
cross the filter chain as text.  A ``str`` crosses as it is, a
``TaintedStr`` with its policies; plain text is not wrapped in a
``TaintedStr``, since it carries no policy for a filter to find.  Bytes
are decoded as UTF-8 (``"replace"``) by ``to_tainted_str``, a
``TaintedBytes`` keeping its policies.  A delivered chunk is a plain ``str``.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..core.runtime import OutputBuffer
from ..tracking.propagation import to_tainted_str
from .base import Channel


def _as_text(data: Any) -> Any:
    """``data`` as the text that crosses the filter chain: a ``str`` as it
    is, anything else (bytes decoded) as a ``TaintedStr``."""
    return data if isinstance(data, str) else to_tainted_str(data)


class HTTPOutputChannel(Channel):
    """The response stream of one HTTP request."""

    channel_type = "http"

    def __init__(self, context: Optional[dict] = None, *, env=None):
        super().__init__(context, env=env)
        self.chunks: List[str] = []
        self.status = 200
        self.headers: List[tuple] = []
        self.buffer = OutputBuffer(self._deliver)
        #: A deferred streaming body (a :class:`~repro.web.response.Response`
        #: whose stream chunks were not drained at apply time).  Set by the
        #: application when the request came through a streaming consumer —
        #: the socket server — which drains it piece by piece through
        #: :meth:`write`, so each piece is checked at this boundary just
        #: before it goes out as one chunked transfer-encoding frame.
        self.pending_stream = None

    # -- channel context helpers --------------------------------------------------

    def set_user(self, user: Optional[str], priv_chair: bool = False) -> None:
        """Annotate the channel with the authenticated user (the MoinMoin
        example of Figure 5 does this from ``process_client``)."""
        self.context["user"] = user
        if priv_chair:
            self.context["priv_chair"] = True

    # -- output -------------------------------------------------------------------------

    def _deliver(self, data: Any) -> None:
        if type(data) is not str:
            # A TaintedStr is copied to drop its policies.
            data = str(_as_text(data))
        self.chunks.append(data)

    def _transmit(self, data: Any) -> None:
        self.buffer.write(data)

    def _receive(self, size: Optional[int] = None) -> Any:
        return ""

    def write(self, data: Any) -> int:
        """Write response data; assertions are checked *before* buffering, so
        a violating chunk never reaches the buffer."""
        return super().write(_as_text(data))

    def set_status(self, status: int) -> None:
        self.status = status

    def add_header(self, name: str, value: str) -> None:
        """Add a response header.

        Headers traverse the same filter chain as the body: an application
        can attach a response-splitting filter that rejects CR-LF sequences
        in header values derived from user input (Section 5.4).
        """
        value = self.filter.filter_write(_as_text(value))
        self.headers.append((name, str(value)))

    # -- output buffering (Section 5.5) ------------------------------------------------------

    def start_buffering(self) -> None:
        self.buffer.start()

    def release_buffer(self) -> None:
        self.buffer.release()

    def discard_buffer(self, alternate: Optional[str] = None) -> None:
        if alternate is not None:
            # The alternate output still crosses the boundary: run it through
            # the filter chain like any other write.
            alternate = self.filter.filter_write(_as_text(alternate))
        self.buffer.discard(alternate)

    # -- inspection ------------------------------------------------------------------------------

    def body(self) -> str:
        """The response body as received by the browser."""
        return "".join(self.chunks)

    def __contains__(self, needle: str) -> bool:
        return needle in self.body()
