"""Append-only audit ledger: framed segments, rotation, retention.

The ledger is the durable half of the audit subsystem.  It shares the
write-ahead log's framing and segment files (:mod:`repro.storage.framing`):
each event is one length-prefixed + CRC framed JSON record appended to the
tail of the current ``seg-<id>.audit`` segment.  When a segment grows past
``segment_bytes`` it is sealed and the next one started; when more than
``retain_segments`` sealed segments exist the oldest are purged — audit
data ages out instead of growing without bound (the retention contract is
documented in ``docs/API.md``).

Crash story, inherited from the framing: a torn final record is truncated
on open and iteration stops at the first invalid frame, so after any crash
the ledger contains an exact *prefix* of the events that were appended.
Every event carries a monotonic ``seq`` assigned here; on reopen the
sequence continues from the highest surviving record, so sequence numbers
never repeat within a directory (modulo purged history).

Unlike the WAL there is no group commit: the recorder's single background
writer thread is the only appender, and audit events are observability
data — ``sync="flush"`` (survive process crash) is the default, with
``"fsync"``/``"none"`` available.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Iterator, List, Optional

from ..storage import framing

__all__ = ["AuditLedger", "MemoryLedger", "SEGMENT_SUFFIX"]

#: Audit segment files are ``seg-<id>.audit`` inside the ledger directory.
SEGMENT_SUFFIX = ".audit"

#: Default rotation point: seal a segment once it passes 4 MiB.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: Default retention: keep at most this many *sealed* segments (the active
#: one is never purged), oldest-first purge beyond it.
DEFAULT_RETAIN_SEGMENTS = 8


class AuditLedger:
    """Segmented append-only event log on a real directory."""

    def __init__(
        self,
        directory: str,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        retain_segments: int = DEFAULT_RETAIN_SEGMENTS,
        sync: str = "flush",
    ):
        framing.check_sync_mode(sync)
        if segment_bytes <= 0:
            raise ValueError("segment_bytes must be positive")
        if retain_segments < 1:
            raise ValueError("retain_segments must be >= 1")
        self.directory = directory
        self.segment_bytes = segment_bytes
        self.retain_segments = retain_segments
        self.sync = sync
        os.makedirs(directory, exist_ok=True)

        self._lock = threading.Lock()
        self._closed = False
        #: Observability counters.
        self.events_written = 0
        self.segments_purged = 0

        existing = self.segment_ids()
        self._segment_id = existing[-1] if existing else 1
        self._next_seq = self._recover_next_seq(existing)
        self._file = framing.open_segment(self.segment_path(self._segment_id))

    # -- segments -----------------------------------------------------------

    def segment_path(self, segment_id: int) -> str:
        return os.path.join(
            self.directory, framing.segment_name(segment_id, SEGMENT_SUFFIX)
        )

    def segment_ids(self) -> List[int]:
        return framing.segment_ids(self.directory, SEGMENT_SUFFIX)

    def _read_segment(self, segment_id: int) -> List[Dict[str, Any]]:
        # Retention may delete a sealed segment while a reader iterates.
        try:
            records, _ = framing.read_segment(self.segment_path(segment_id))
        except OSError:
            return []
        return records

    def _recover_next_seq(self, existing: List[int]) -> int:
        """Continue the sequence after the highest surviving event.

        Only valid (CRC-checked) records count: a torn tail never advances
        the sequence, so a reopened ledger hands out exactly the numbers
        the lost suffix would have used.
        """
        highest = 0
        for segment_id in reversed(existing):
            records = self._read_segment(segment_id)
            if records:
                highest = max(
                    (
                        record.get("seq", 0)
                        for record in records
                        if isinstance(record.get("seq"), int)
                    ),
                    default=0,
                )
                if highest:
                    break
        return highest + 1

    def _rotate_locked(self) -> None:
        self._file.close()
        self._segment_id += 1
        self._file = framing.open_segment(self.segment_path(self._segment_id))
        self._purge_locked()

    def _purge_locked(self) -> None:
        sealed = [sid for sid in self.segment_ids() if sid != self._segment_id]
        excess = len(sealed) - self.retain_segments
        for old in sealed[: max(excess, 0)]:
            try:
                os.unlink(self.segment_path(old))
            except OSError:
                continue
            self.segments_purged += 1

    # -- append -------------------------------------------------------------

    def append(self, event: Dict[str, Any]) -> int:
        """Frame and append one event; returns its assigned ``seq``.

        The event dict is mutated to carry the ``seq``.  Rotation and
        retention run inline after the write — both are cheap directory
        operations on the writer thread, never on a request path.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("append() on a closed audit ledger")
            seq = self._next_seq
            self._next_seq += 1
            event["seq"] = seq
            self._file.write(framing.encode_record(event))
            framing.sync_file(self._file, self.sync)
            self.events_written += 1
            if self._file.tell() >= self.segment_bytes:
                self._rotate_locked()
            return seq

    def flush(self) -> None:
        """Flush to the OS (and fsync under ``"fsync"``), even if ``"none"``."""
        with self._lock:
            if not self._closed:
                framing.sync_file(
                    self._file, "fsync" if self.sync == "fsync" else "flush"
                )

    # -- read ---------------------------------------------------------------

    def iter_events(self, *, since_seq: int = 0) -> Iterator[Dict[str, Any]]:
        """Yield surviving events in order, one segment at a time.

        Streams segment-by-segment — the whole ledger is never resident —
        and stops a segment at its first invalid frame (prefix semantics).
        Safe to run concurrently with appends: an in-flight final frame
        simply doesn't decode yet.
        """
        for segment_id in self.segment_ids():
            for record in self._read_segment(segment_id):
                if record.get("seq", 0) > since_seq:
                    yield record

    @property
    def next_seq(self) -> int:
        with self._lock:
            return self._next_seq

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._file.flush()
            finally:
                self._file.close()

    def __enter__(self) -> "AuditLedger":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class MemoryLedger:
    """In-process ledger with the :class:`AuditLedger` append/iter contract.

    Used when audit is enabled without a directory (``resin.enable_audit()``
    with no path, the Table 4 parity harness, unit tests): events live in a
    bounded in-memory list — oldest purged past ``retain_events`` — and
    nothing touches the filesystem.
    """

    def __init__(self, *, retain_events: int = 100_000):
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []
        self._next_seq = 1
        self.retain_events = retain_events
        self.events_written = 0
        self.segments_purged = 0

    def append(self, event: Dict[str, Any]) -> int:
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            event["seq"] = seq
            self._events.append(event)
            self.events_written += 1
            if len(self._events) > self.retain_events:
                del self._events[: len(self._events) - self.retain_events]
            return seq

    def flush(self) -> None:
        pass

    def iter_events(self, *, since_seq: int = 0) -> Iterator[Dict[str, Any]]:
        with self._lock:
            snapshot = list(self._events)
        for record in snapshot:
            if record.get("seq", 0) > since_seq:
                yield record

    @property
    def next_seq(self) -> int:
        with self._lock:
            return self._next_seq

    def close(self) -> None:
        pass

    directory: Optional[str] = None
