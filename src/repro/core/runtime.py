"""Runtime boundary machinery.

This module implements the output buffering mechanism applications use to
combine assertions with exception handling (Section 5.5).

The default filter factories of Section 3.2.1 live in
:mod:`repro.core.registry`: each :class:`~repro.environment.Environment`
owns one :class:`~repro.core.registry.FilterRegistry`, and
:func:`~repro.core.registry.default_filter` builds a channel's default filter
through it.

The full "environment" — filesystem + database + mail + HTTP output + code
interpreter wired together — lives in :mod:`repro.environment`; the fluent
entry point is :class:`repro.runtime_api.Resin`.
"""

from __future__ import annotations

from typing import Any, Callable, List

from .exceptions import FilterError

__all__ = ["OutputBuffer"]


class OutputBuffer:
    """Output buffering for exception-driven access checks (Section 5.5).

    An application that lets RESIN assertions *be* its access checks wraps
    page-generation code in a try block.  Output produced inside the block is
    buffered; if an assertion raises, the buffer is discarded (and alternate
    output such as ``"Anonymous"`` may be substituted), otherwise it is
    released to the real channel.

    Buffers nest: each ``start`` pushes a new buffer, and writes go to the
    innermost one.
    """

    def __init__(self, sink: Callable[[Any], None]):
        self._sink = sink
        self._stack: List[List[Any]] = []

    @property
    def buffering(self) -> bool:
        return bool(self._stack)

    @property
    def depth(self) -> int:
        return len(self._stack)

    def write(self, data: Any) -> None:
        """Write ``data`` to the innermost buffer, or straight to the sink if
        no buffering is active."""
        if self._stack:
            self._stack[-1].append(data)
        else:
            self._sink(data)

    def start(self) -> None:
        """Start buffering subsequent writes."""
        self._stack.append([])

    def release(self) -> None:
        """Release the innermost buffer to the enclosing buffer (or to the
        sink if it is the outermost one)."""
        if not self._stack:
            raise FilterError("release() without start()")
        chunk = self._stack.pop()
        for data in chunk:
            self.write(data)

    def discard(self, alternate: Any = None) -> None:
        """Throw away the innermost buffer, optionally writing ``alternate``
        output in its place."""
        if not self._stack:
            raise FilterError("discard() without start()")
        self._stack.pop()
        if alternate is not None:
            self.write(alternate)

    def __enter__(self) -> "OutputBuffer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.release()
        else:
            self.discard()
        return False
