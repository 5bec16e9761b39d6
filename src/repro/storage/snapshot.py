"""Snapshot writer/loader for the durable storage engine.

A snapshot is one environment's SQL tables and filesystem tree written as
the WAL's own ``sql.*``/``fs.*`` records, while the durability gate is held
exclusively (no mutation in flight).  It records ``wal_start`` — the id of
the WAL segment opened at the same instant — so recovery is one replay:
*the snapshot's records, then segments >= ``wal_start``* reproduce the
live state.  Only what the WAL logs is in a snapshot.

Policies ride along intact.  Table cells are plain values (the policy
columns the SQL channel maintains are ordinary ``TEXT`` cells and serialize
with the rest of the row), file policy range-maps are already serialized
strings in the ``user.resin.policies`` xattr, and persistent filter objects
are serialized class-name + data fields by the policy codec
(:func:`repro.core.serialization.serialize_filter`) — never code.  That is
what makes taint survive a restart (Section 3.4.1 of the paper).  Every
record comes from the builder the live path logs with
(``Table.create_record``/``rows_record``/``index_record`` and
:func:`repro.fs.resinfs.file_record`/``filter_record``).

On disk a snapshot is a single uncapped frame (length + CRC32 + JSON) in a
file named ``snap-<wal_start>.snap``, written to a temp file and renamed
into place — a torn snapshot write leaves only an invalid temp file, and
:func:`load_latest_snapshot` simply falls back to the previous snapshot.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from ..core.exceptions import RecoveryError
from ..core.filter import Filter
from ..fs.filesystem import FileSystem
from ..fs.resinfs import FILTER_XATTR, file_record, filter_record
from ..sql.engine import Engine
from .framing import (
    encode_record,
    fsync_directory,
    read_segment,
    segment_ids,
    segment_name,
    sync_file,
)

__all__ = [
    "build_snapshot",
    "write_snapshot",
    "load_latest_snapshot",
    "snapshot_ids",
    "retire_snapshots_except",
    "SNAPSHOT_PREFIX",
]

SNAPSHOT_PREFIX = "snap-"
_SNAPSHOT_SUFFIX = ".snap"

#: ``{"version", "wal_start", "records"}``; version 1 documents are refused.
SNAPSHOT_VERSION = 2


# -- snapshot document --------------------------------------------------------


def build_snapshot(engine: Engine, fs: FileSystem, wal_start: int) -> Dict[str, Any]:
    """The snapshot document for the current state of ``engine`` + ``fs``:
    the WAL records that rebuild it from empty.  Index records follow their
    table's rows, so replay builds each index once.

    Must be called with the durability gate held exclusively: the builder
    reads the table dicts and the inode tree lock-free, which is only safe
    because every mutation runs under the shared side of the gate.
    """
    records: List[Dict[str, Any]] = []
    for name in sorted(engine.tables):
        table = engine.tables[name]
        records.append(table.create_record())
        if table.rows:
            rows = table.encode_rows(table.rows)
            records.append(table.rows_record("sql.insert", rows=rows))
        for index_name in sorted(table.indexes):
            records.append(table.index_record(table.indexes[index_name]))
    for path in fs.walk("/"):
        node = fs._lookup(path)
        if node is None:
            continue
        if node.is_file:
            records.append(file_record(path, node))
        elif path != "/":
            records.append({"op": "fs.mkdir", "path": path})
        flt = node.xattrs.get(FILTER_XATTR)
        record = filter_record(path, flt) if isinstance(flt, Filter) else None
        if record is not None:
            records.append(record)
    return {
        "version": SNAPSHOT_VERSION,
        "wal_start": int(wal_start),
        "records": records,
    }


# -- snapshot files -----------------------------------------------------------


def _snapshot_name(wal_start: int) -> str:
    return segment_name(wal_start, _SNAPSHOT_SUFFIX, SNAPSHOT_PREFIX)


def snapshot_ids(directory: str) -> List[int]:
    return segment_ids(directory, _SNAPSHOT_SUFFIX, SNAPSHOT_PREFIX)


def write_snapshot(directory: str, doc: Dict[str, Any], *, sync: bool = True) -> str:
    """Write ``doc`` atomically as ``snap-<wal_start>.snap``; returns the
    path.  Temp-file + rename: a crash mid-write never damages an existing
    snapshot, and a half-written temp file is simply ignored by the loader."""
    path = os.path.join(directory, _snapshot_name(doc["wal_start"]))
    tmp = path + ".tmp"
    # A snapshot is one trusted frame with no size cap (a whole store can
    # exceed the WAL's per-record limit); the loader reads it uncapped too.
    frame = encode_record(doc, max_bytes=None)
    with open(tmp, "wb") as handle:
        handle.write(frame)
        sync_file(handle, "fsync" if sync else "none")
    os.replace(tmp, path)
    if sync:
        fsync_directory(directory)
    return path


def load_latest_snapshot(directory: str) -> Optional[Dict[str, Any]]:
    """The newest snapshot that validates (CRC + structure), or ``None``
    when no snapshot file exists (a fresh store).

    Scans newest-first so a corrupt newest snapshot falls back to an older
    valid one — the WAL segments it would have retired are still on disk,
    so recovery stays exact.  But when snapshot files *exist* and none
    validates (corruption/bitrot), there is no state to fall back to —
    compaction already deleted the WAL prefix they covered — so this raises
    :class:`~repro.core.exceptions.RecoveryError` rather than letting
    recovery silently present an empty store as success.  So does a valid
    snapshot of another format version, which this build cannot read."""
    ids = snapshot_ids(directory)
    for wal_start in reversed(ids):
        path = os.path.join(directory, _snapshot_name(wal_start))
        try:
            records, clean = read_segment(path, max_record_bytes=None)
        except OSError:
            continue
        if len(records) != 1 or not clean:
            continue
        doc = records[0]
        if doc.get("version") != SNAPSHOT_VERSION:
            raise RecoveryError(
                f"snapshot {path!r} has format version {doc.get('version')!r}, "
                f"but this build reads only version {SNAPSHOT_VERSION}; open "
                "the store with the build that wrote it"
            )
        if "wal_start" in doc and isinstance(doc.get("records"), list):
            return doc
    if ids:
        names = ", ".join(_snapshot_name(wal_start) for wal_start in ids)
        raise RecoveryError(
            f"snapshot file(s) {names} in {directory!r} exist but none "
            "validates; recovering from an empty store would silently lose "
            "data — restore the snapshot from backup, or delete the store "
            "directory to start empty deliberately"
        )
    return None


def retire_snapshots_except(directory: str, keep_wal_start: int) -> List[int]:
    """Delete every snapshot other than ``keep_wal_start`` (compaction)."""
    retired = []
    for wal_start in snapshot_ids(directory):
        if wal_start != keep_wal_start:
            os.unlink(os.path.join(directory, _snapshot_name(wal_start)))
            retired.append(wal_start)
    return retired
