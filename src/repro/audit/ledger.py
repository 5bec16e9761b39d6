"""Append-only audit ledger: framed segments, rotation, retention.

The ledger is the durable half of the audit subsystem.  It shares the
write-ahead log's framing and segment files (:mod:`repro.storage.framing`):
each event is one length-prefixed + CRC framed JSON record appended to the
tail of the current ``seg-<id>.audit`` segment.  When a segment grows past
``segment_bytes`` it is sealed and the next one started; when more than
``retain_segments`` sealed segments exist the oldest are purged — audit
data ages out instead of growing without bound (the retention contract is
documented in ``docs/API.md``).

Policy blobs are written once per segment.  The first event in a segment
to cite a blob is preceded, in the same write, by a *policy record*
``{"key": k, "policy": blob}`` (it takes no ``seq``), and every event
cites its blobs by those small integer keys.  Keys are scoped to their
segment: a rotated segment and a reopened ledger define again what they
cite, so a segment never depends on another one — retention may purge
any sealed segment — and a torn tail never leaves a key without its
record.  :meth:`AuditLedger.iter_events` resolves the keys, so readers
get the blobs back; a segment written with blobs inline in its events
reads the same.

Crash story, inherited from the framing: a torn final record is truncated
on open and iteration stops at the first invalid frame, so after any crash
the ledger contains an exact *prefix* of the events that were appended.
Every event carries a monotonic ``seq`` assigned here; on reopen the
sequence continues from the highest surviving record, so sequence numbers
never repeat within a directory (modulo purged history).

Unlike the WAL there is no group commit: the recorder's single background
writer thread is the only appender, and audit events are observability
data — ``sync="flush"`` (survive process crash) is the default, with
``"fsync"``/``"none"`` available.  That writer hands over each drained
batch through :meth:`AuditLedger.append_batch`: one segment write and one
sync for the batch, rotation checked once after it.  Frames stay
independent, so a batch torn by a crash still leaves an exact prefix.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..storage import framing

__all__ = ["AuditLedger", "MemoryLedger", "SEGMENT_SUFFIX"]

#: Audit segment files are ``seg-<id>.audit`` inside the ledger directory.
SEGMENT_SUFFIX = ".audit"

#: Default rotation point: seal a segment once it passes 4 MiB.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: Default retention: keep at most this many *sealed* segments (the active
#: one is never purged), oldest-first purge beyond it.
DEFAULT_RETAIN_SEGMENTS = 8

#: Bound on the writer's key table (cleared, not evicted, when a write
#: leaves it past the bound; rotation clears it too).  It is keyed by blob
#: identity, so it only outgrows the recorder's policy memo when blobs
#: churn: the memo was cleared, or a policy is serialized per event.
_KEY_TABLE_LIMIT = 4096


def _is_policy_record(record: Dict[str, Any]) -> bool:
    return "seq" not in record and isinstance(record.get("key"), int)


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
        # The blobs defined in the active segment by this process:
        # id(blob) -> (key, blob), the blob pinned so its id stays unique.
        self._keys: Dict[int, Tuple[int, Any]] = {}
        self._next_key = 0
        self._next_seq = self._recover(existing)
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

    def _recover(self, existing: List[int]) -> int:
        """The next seq, after the highest surviving event; the next key,
        after the highest one the active segment defines.

        Only valid (CRC-checked) records count: a torn tail never advances
        the sequence, so a reopened ledger hands out exactly the numbers
        the lost suffix would have used.
        """
        for segment_id in reversed(existing):
            records = self._read_segment(segment_id)
            if segment_id == self._segment_id:
                self._next_key = 1 + max(
                    (r["key"] for r in records if _is_policy_record(r)), default=-1
                )
            highest = max(
                (r["seq"] for r in records if isinstance(r.get("seq"), int)),
                default=0,
            )
            if highest:
                return highest + 1
        return 1

    def _rotate_locked(self) -> None:
        self._file.close()
        self._segment_id += 1
        self._keys.clear()
        self._next_key = 0
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

        The event dict is mutated to carry the ``seq``, and the frame has
        been synced per ``sync`` on return.  Rotation and retention run
        inline after the write — both are cheap directory operations on
        the writer thread, never on a request path.
        """
        with self._lock:
            self._check_open_locked()
            frame = self._frame_locked(event)
            self._write_locked(frame, 1)
            return event["seq"]

    def append_batch(self, events: Iterable[Dict[str, Any]]) -> List[int]:
        """Frame ``events`` in order and append them with one write and one
        sync; returns the seqs written.

        An event that cannot be framed (a non-JSON field, a payload over
        the frame limit) is skipped: it takes no ``seq`` and is missing
        from the result, so the written events keep consecutive seqs.
        Rotation is checked once, after the write, so a segment passes
        ``segment_bytes`` by at most one batch.
        """
        with self._lock:
            self._check_open_locked()
            frames: List[bytes] = []
            seqs: List[int] = []
            for event in events:
                try:
                    frames.append(self._frame_locked(event))
                except Exception:
                    continue
                seqs.append(event["seq"])
            if frames:
                self._write_locked(b"".join(frames), len(frames))
            return seqs

    def _check_open_locked(self) -> None:
        if self._closed:
            raise RuntimeError("append() on a closed audit ledger")

    def _frame_locked(self, event: Dict[str, Any]) -> bytes:
        """Stamp ``event`` with the next seq and frame it, after a policy
        record for each blob it is the first in this segment to cite.  The
        frame cites blobs by key; ``event`` itself keeps its blobs.  A
        failed encode leaves neither the seq on the event, a gap in the
        sequence nor a key in the table."""
        record = dict(event, seq=self._next_seq)
        frames: List[bytes] = []
        policies = event.get("policies")
        try:
            if isinstance(policies, list):
                record["policies"] = [self._key_locked(b, frames) for b in policies]
            frames.append(framing.encode_record(record))
        except BaseException:
            # The policy records it framed are dropped with the event: no
            # key may outlive them, and forgetting the rest only costs their
            # blobs another record.
            self._keys.clear()
            raise
        event["seq"] = self._next_seq
        self._next_seq += 1
        return b"".join(frames)

    def _key_locked(self, blob: Any, frames: List[bytes]) -> int:
        """``blob``'s key in the active segment, framing its policy record
        into ``frames`` the first time."""
        entry = self._keys.get(id(blob))
        if entry is None:
            key = self._next_key
            frames.append(framing.encode_record({"key": key, "policy": blob}))
            self._next_key = key + 1
            entry = self._keys[id(blob)] = (key, blob)
        return entry[0]

    def _write_locked(self, frames: bytes, count: int) -> None:
        try:
            self._file.write(frames)
            framing.sync_file(self._file, self.sync)
        except BaseException:
            # The policy records may not have landed: define blobs again.
            self._keys.clear()
            raise
        self.events_written += count
        if len(self._keys) > _KEY_TABLE_LIMIT:
            # Forgetting a key only costs its blob another policy record.
            self._keys.clear()
        if self._file.tell() >= self.segment_bytes:
            self._rotate_locked()

    def flush(self) -> None:
        """Flush to the OS (and fsync under ``"fsync"``), even if ``"none"``."""
        with self._lock:
            if not self._closed:
                framing.sync_file(
                    self._file, "fsync" if self.sync == "fsync" else "flush"
                )

    # -- read ---------------------------------------------------------------

    def iter_events(self, *, since_seq: int = 0) -> Iterator[Dict[str, Any]]:
        """Yield surviving events in order, one segment at a time, their
        policy keys resolved to blobs.

        Streams segment-by-segment — the whole ledger is never resident —
        and stops a segment at its first invalid frame (prefix semantics),
        or at an event citing a key the segment never defined.  Safe to run
        concurrently with appends: an in-flight final frame simply doesn't
        decode yet.  The events of one segment share their blob dicts, so
        callers must treat them as read-only.
        """
        for segment_id in self.segment_ids():
            blobs: Dict[int, Any] = {}
            for record in self._read_segment(segment_id):
                if _is_policy_record(record):
                    blobs[record["key"]] = record.get("policy")
                    continue
                policies = record.get("policies")
                if policies and type(policies) is list and type(policies[0]) is int:
                    try:
                        record["policies"] = [blobs[key] for key in policies]
                    except (KeyError, TypeError):
                        break
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

    def append_batch(self, events: Iterable[Dict[str, Any]]) -> List[int]:
        """:meth:`append` each event in order; returns the seqs written (an
        event whose append raises is skipped)."""
        seqs: List[int] = []
        for event in events:
            try:
                seqs.append(self.append(event))
            except Exception:
                continue
        return seqs

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
