"""HTTP output channel.

Represents the response stream back to a browser.  It is the boundary most
of the paper's assertions care about (password disclosure, ACL checks,
cross-site scripting), and it implements the output-buffering mechanism of
Section 5.5 so applications can drive access checks from assertion
exceptions.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..core.runtime import OutputBuffer
from ..tracking.propagation import to_tainted_str
from .base import Channel


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
        if isinstance(data, bytes):
            data = bytes(data).decode("utf-8", "replace")
        self.chunks.append(str(data))

    def _transmit(self, data: Any) -> None:
        self.buffer.write(data)

    def _receive(self, size: Optional[int] = None) -> Any:
        return ""

    def write(self, data: Any) -> int:
        """Write response data; assertions are checked *before* buffering, so
        a violating chunk never reaches the buffer."""
        return super().write(to_tainted_str(data))

    def set_status(self, status: int) -> None:
        self.status = status

    def add_header(self, name: str, value: str) -> None:
        """Add a response header.

        Headers traverse the same filter chain as the body: an application
        can attach a response-splitting filter that rejects CR-LF sequences
        in header values derived from user input (Section 5.4).
        """
        value = self.filter.filter_write(to_tainted_str(value))
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
            alternate = self.filter.filter_write(to_tainted_str(alternate))
        self.buffer.discard(str(alternate) if alternate is not None else None)

    # -- inspection ------------------------------------------------------------------------------

    def body(self) -> str:
        """The response body as received by the browser."""
        return "".join(self.chunks)

    def __contains__(self, needle: str) -> bool:
        return needle in self.body()
