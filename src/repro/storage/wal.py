"""Append-only, checksummed write-ahead log with group commit.

The durable backend follows the TWIAD/write-optimized shape the ROADMAP
names for ingest-heavy workloads: every mutation becomes one small record
appended to the tail of a log segment, so the storage cost of a write is a
sequential append — never a random update — and the random-access state
lives only in memory, rebuilt on recovery from snapshot + log tail.

Wire format — each record is length-prefixed and checksummed (the framing
and the segment files live in :mod:`repro.storage.framing`, shared with the
audit ledger and the snapshot files)::

    +----------------+----------------+----------------------+
    | length (4B BE) | crc32 (4B BE)  | payload (JSON, UTF-8) |
    +----------------+----------------+----------------------+

A reader accepts a record only if the full frame is present *and* the CRC
matches; anything else is a **torn tail** — the crash left a partial final
record — and replay stops exactly there, yielding the committed prefix.
Opening a segment truncates a torn tail before appending
(:func:`repro.storage.framing.open_segment`), so the log never contains
garbage between valid records.

Group commit (the one-fsync-absorbs-a-batch design): :meth:`append` only
buffers the encoded frame under the log mutex and hands back an LSN;
:meth:`commit` makes an LSN durable.  The first committer becomes the
*leader* — it takes the whole buffered batch, writes it, and issues one
``fsync`` — while concurrent committers wait as *followers* and return as
soon as the leader's sync covers their LSN.  Under N concurrent writers one
disk sync amortizes across all records buffered while the previous sync was
in flight, which is what keeps durable throughput within a small factor of
in-memory throughput (see ``benchmarks/bench_wal_commit.py``).
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Iterator, List, Optional

from . import framing

__all__ = ["WriteAheadLog"]

#: WAL segment files are ``seg-<id>.wal`` inside the log directory.
_SEGMENT_SUFFIX = ".wal"


class WriteAheadLog:
    """A segmented append-only log on a real directory.

    One segment file is open for append at a time; :meth:`rotate` seals it
    and starts the next (the checkpoint boundary — see
    :class:`~repro.storage.durability.Durability`), and
    :meth:`retire_before` deletes segments a snapshot fully covers.

    ``sync`` selects the durability barrier per flush: ``"fsync"`` (the
    default — survives OS crash), ``"flush"`` (OS buffer only — survives
    process crash; useful for tests and latency experiments) or ``"none"``.
    """

    def __init__(self, directory: str, *, sync: str = "fsync"):
        self.directory = directory
        self.sync = framing.check_sync_mode(sync)
        os.makedirs(directory, exist_ok=True)

        self._cond = threading.Condition()
        self._next_lsn = 1
        self._durable_lsn = 0
        self._flushing = False
        self._pending: List[bytes] = []
        self._closed = False
        #: First write/sync failure, if any.  A failed flush poisons the
        #: log: the batch may be partially on disk with no sync barrier, so
        #: no later LSN can ever be acknowledged durable again.
        self._failure: Optional[BaseException] = None

        #: Observability counters: ``syncs`` vs ``records`` is the
        #: group-commit batching ratio the benchmark reports.
        self.records = 0
        self.syncs = 0
        self.bytes_written = 0

        existing = self.segment_ids()
        self._segment_id = existing[-1] if existing else 1
        self._file = framing.open_segment(self.segment_path(self._segment_id))

    # -- segment management -------------------------------------------------

    def segment_path(self, segment_id: int) -> str:
        return os.path.join(self.directory,
                            framing.segment_name(segment_id, _SEGMENT_SUFFIX))

    def segment_ids(self) -> List[int]:
        return framing.segment_ids(self.directory, _SEGMENT_SUFFIX)

    def rotate(self) -> int:
        """Seal the current segment and start the next; returns the new id.

        Callers must quiesce appends first (the durability layer holds its
        exclusive gate and drains :meth:`commit`): rotating with records
        still buffered would write them into the wrong segment.
        """
        with self._cond:
            self._check_poisoned()
            if self._pending or self._flushing:
                raise RuntimeError("rotate() with undrained records; "
                                   "commit() first")
            self._file.close()
            self._segment_id += 1
            self._file = framing.open_segment(self.segment_path(self._segment_id))
            self._sync_directory()
            return self._segment_id

    def retire_before(self, segment_id: int) -> List[int]:
        """Delete every sealed segment with id < ``segment_id`` (compaction:
        a snapshot covering them has been durably written)."""
        retired = []
        for old in self.segment_ids():
            if old < segment_id and old != self._segment_id:
                os.unlink(self.segment_path(old))
                retired.append(old)
        if retired:
            self._sync_directory()
        return retired

    def _sync_directory(self) -> None:
        if self.sync == "fsync":
            framing.fsync_directory(self.directory)

    # -- append / commit ----------------------------------------------------

    def append(self, record: Dict[str, Any]) -> int:
        """Buffer one record; returns its LSN (not yet durable)."""
        frame = framing.encode_record(record)
        with self._cond:
            if self._closed:
                raise RuntimeError("append() on a closed WAL")
            self._check_poisoned()
            lsn = self._next_lsn
            self._next_lsn += 1
            self.records += 1
            self._pending.append(frame)
        return lsn

    def log(self, record: Dict[str, Any]) -> int:
        """Append and make durable in one call."""
        lsn = self.append(record)
        self.commit(lsn)
        return lsn

    def commit(self, lsn: Optional[int] = None) -> None:
        """Block until every record up to ``lsn`` (default: all appended so
        far) is durable.  Leader/follower group commit: see module docstring.

        Raises if the flush covering ``lsn`` failed — whether this thread
        led it or a leader failed while this thread waited as a follower.
        The durable LSN only ever advances on a *successful* sync, and a
        failure poisons the log (the batch was consumed and may sit
        partially on disk unsynced), so no thread can observe a durability
        acknowledgment for records that never reached the disk.
        """
        with self._cond:
            if lsn is None:
                lsn = self._next_lsn - 1
            while True:
                if self._durable_lsn >= lsn:
                    return
                self._check_poisoned()
                if not self._flushing:
                    break
                self._cond.wait()
            self._flushing = True
            batch = self._pending
            self._pending = []
            upto = self._next_lsn - 1
        try:
            self._write_frames(batch)
        except BaseException as exc:
            with self._cond:
                self._flushing = False
                self._failure = exc
                self._cond.notify_all()
            raise
        with self._cond:
            self._flushing = False
            self._durable_lsn = max(self._durable_lsn, upto)
            self._cond.notify_all()

    def _check_poisoned(self) -> None:
        """Raise (under the mutex) if an earlier flush failed."""
        if self._failure is not None:
            raise RuntimeError(
                "WAL write failed earlier; records past LSN "
                f"{self._durable_lsn} are not durable") from self._failure

    def _write_frames(self, frames: List[bytes]) -> None:
        if frames:
            data = b"".join(frames)
            self._file.write(data)
            self.bytes_written += len(data)
        framing.sync_file(self._file, self.sync)
        self.syncs += 1

    @property
    def size(self) -> int:
        """Bytes written to the current segment (durable + buffered)."""
        with self._cond:
            return (self._file.tell()
                    + sum(len(frame) for frame in self._pending))

    # -- replay -------------------------------------------------------------

    def replay(self, start_segment: int = 0) -> Iterator[Dict[str, Any]]:
        """Yield every valid record from segments >= ``start_segment`` in
        order, stopping at the first torn/corrupt frame (prefix semantics)."""
        for segment_id in self.segment_ids():
            if segment_id < start_segment:
                continue
            records, clean = framing.read_segment(self.segment_path(segment_id))
            yield from records
            if not clean:
                return

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Flush and close.  Re-raises a pending/previous flush failure
        (after closing the file) — losing buffered records must be loud."""
        with self._cond:
            if self._closed:
                return
        try:
            self.commit()
        finally:
            with self._cond:
                self._closed = True
                self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
