"""Snapshot writer/loader for the durable storage engine.

A snapshot is a full, point-in-time serialization of one environment's SQL
tables and filesystem tree, written while the durability gate is held
exclusively (no mutation in flight).  It records ``wal_start`` — the id of
the WAL segment opened at the same instant — so recovery knows exactly which
log suffix still applies: *snapshot state + replay of segments >=
``wal_start``* reproduces the live state.

Policies ride along intact.  Table cells are plain values (the policy
columns the SQL channel maintains are ordinary ``TEXT`` cells and serialize
with the rest of the row), file policy range-maps are already serialized
strings in the ``user.resin.policies`` xattr, and persistent filter objects
are serialized class-name + data fields via the same codec the policies use
(:func:`repro.core.serialization.encode_field`) — never code.  That is what
makes taint survive a restart (Section 3.4.1 of the paper).

On disk a snapshot is a single WAL-style frame (length + CRC32 + JSON) in a
file named ``snap-<wal_start>.snap``, written to a temp file and renamed
into place — a torn snapshot write leaves only an invalid temp file, and
:func:`load_latest_snapshot` simply falls back to the previous snapshot.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Mapping, Optional

from ..core.context import as_context
from ..core.exceptions import PolicyViolation, RecoveryError, SerializationError
from ..core.filter import Filter
from ..core.serialization import decode_field, encode_field, qualified_name
from ..fs import path as fspath
from ..fs.filesystem import FileSystem, Inode
from ..sql import nodes
from ..sql.engine import Engine, Table
from ..sql.indexes import SecondaryIndex
from .framing import decode_records, decode_value, encode_record, encode_value

__all__ = [
    "build_snapshot",
    "restore_snapshot",
    "write_snapshot",
    "load_latest_snapshot",
    "snapshot_ids",
    "retire_snapshots_except",
    "serialize_filter",
    "deserialize_filter",
    "UnknownFilter",
    "SNAPSHOT_PREFIX",
]

SNAPSHOT_PREFIX = "snap-"
_SNAPSHOT_SUFFIX = ".snap"

SNAPSHOT_VERSION = 1


# -- persistent filter codec --------------------------------------------------


class UnknownFilter(Filter):
    """Placeholder for a stored filter whose class cannot be resolved.

    The filter counterpart of
    :class:`~repro.core.serialization.UnknownPolicy`: tolerant recovery must
    not drop an access-control boundary just because this deployment does
    not ship its class, so the placeholder stays attached and denies every
    write and namespace mutation (fail closed); reads pass through, matching
    :class:`~repro.security.assertions.WriteAccessFilter`'s shape.
    """

    def __init__(self, class_name: str, record: Optional[dict] = None):
        super().__init__()
        self.class_name = str(class_name)
        self.record = record if record is not None else {}

    def _deny(self, operation: str, path: str, context) -> None:
        raise PolicyViolation(
            f"path {path!r} is guarded by unknown filter class "
            f"{self.class_name!r}; denying {operation} (deny-by-default "
            "for unresolvable assertions)",
            context=context,
        )

    def filter_write(self, data: Any, offset: int = 0) -> Any:
        self._deny("write", self.context.get("path", ""), self.context)

    def check_mutation(self, operation: str, path: str, context) -> None:
        self._deny(operation, path, context)

    def __repr__(self) -> str:
        return f"UnknownFilter({self.class_name!r})"


def serialize_filter(flt: Filter) -> Dict[str, Any]:
    """Serialize a persistent filter object (class name + data fields).

    Follows the policy protocol exactly: the filter must expose
    ``serializable_fields()`` and contain only data.  Filters that carry
    code (callable predicates) raise
    :class:`~repro.core.exceptions.SerializationError` — the durability
    layer skips those with the caveat that they must be re-attached at
    application start-up.
    """
    if isinstance(flt, UnknownFilter):
        return {
            "class": flt.class_name,
            "fields": dict(flt.record.get("fields", {})),
        }
    fields = getattr(flt, "serializable_fields", None)
    if not callable(fields):
        raise SerializationError(
            f"filter {type(flt).__name__} does not support persistence "
            "(no serializable_fields)"
        )
    return {
        "class": qualified_name(type(flt)),
        "fields": {key: encode_field(value) for key, value in fields().items()},
    }


def _find_filter_class(name: str) -> type:
    def scan(base):
        for sub in base.__subclasses__():
            yield sub
            yield from scan(sub)

    for cls in scan(Filter):
        if qualified_name(cls) == name or cls.__qualname__ == name:
            return cls
    raise SerializationError(f"unknown filter class {name!r}")


def deserialize_filter(record: Dict[str, Any], *, tolerant: bool = False) -> Filter:
    """Re-create a persistent filter from its serialized form.

    Mirrors :func:`repro.core.serialization.deserialize_policy`: the object
    is created without ``__init__`` and exactly the stored fields are
    restored.  With ``tolerant=True`` an unknown class yields a fail-closed
    :class:`UnknownFilter` instead of raising.
    """
    try:
        name = record["class"]
    except KeyError as exc:
        raise SerializationError(f"malformed filter record: {record!r}") from exc
    try:
        cls = _find_filter_class(name)
    except SerializationError:
        if not tolerant:
            raise
        return UnknownFilter(
            name, {"class": name, "fields": dict(record.get("fields", {}))}
        )
    flt = cls.__new__(cls)
    flt.context = as_context(None)
    for key, value in record.get("fields", {}).items():
        setattr(flt, key, decode_field(value, tolerant=tolerant))
    return flt


# -- snapshot document --------------------------------------------------------


def _snapshot_table(table: Table) -> Dict[str, Any]:
    columns = [[c.name, c.type, list(c.constraints)] for c in table.columns]
    names = list(table.column_names)
    rows = [[encode_value(row.get(name)) for name in names] for row in table.rows]
    doc = {"name": table.name, "columns": columns, "rows": rows}
    if table.indexes:
        # Definitions only — index contents are derived state, rebuilt from
        # the restored rows (matching the WAL's create_index records).
        doc["indexes"] = [
            [index.name, index.column, index.kind]
            for index in sorted(table.indexes.values(), key=lambda i: i.name)
        ]
    return doc


def _snapshot_xattrs(inode: Inode) -> Dict[str, Any]:
    xattrs: Dict[str, Any] = {}
    for name, value in sorted(inode.xattrs.items()):
        if isinstance(value, Filter):
            try:
                xattrs[name] = {"__filter__": serialize_filter(value)}
            except SerializationError:
                # Code-carrying filter (callable predicate): not durable by
                # design; the application re-attaches it at start-up.
                continue
        else:
            try:
                xattrs[name] = encode_value(value)
            except SerializationError:
                continue
    return xattrs


def build_snapshot(engine: Engine, fs: FileSystem, wal_start: int) -> Dict[str, Any]:
    """The snapshot document for the current state of ``engine`` + ``fs``.

    Must be called with the durability gate held exclusively: the builder
    reads the table dicts and the inode tree lock-free, which is only safe
    because every mutation runs under the shared side of the gate.
    """
    tables = [
        _snapshot_table(engine.tables[name]) for name in sorted(engine.tables)
    ]
    tree: List[Dict[str, Any]] = []
    for path in fs.walk("/"):
        node = fs._lookup(path)
        if node is None:
            continue
        entry: Dict[str, Any] = {"path": path, "kind": node.kind}
        if node.is_file:
            entry["data"] = node.data.hex()
        xattrs = _snapshot_xattrs(node)
        if xattrs:
            entry["xattrs"] = xattrs
        tree.append(entry)
    return {
        "version": SNAPSHOT_VERSION,
        "wal_start": int(wal_start),
        "tables": tables,
        "fs": tree,
    }


def restore_snapshot(
    doc: Dict[str, Any], engine: Engine, fs: FileSystem, *, tolerant: bool = False
) -> None:
    """Load a snapshot document into ``engine`` and ``fs`` (replacing their
    contents).  Runs before the environment serves anything, so it touches
    the structures directly."""
    engine.tables.clear()
    for spec in doc.get("tables", []):
        columns = [
            nodes.ColumnDef(name, type, tuple(constraints))
            for name, type, constraints in spec["columns"]
        ]
        table = Table(spec["name"], columns)
        names = table.column_names
        table.rows = [
            {name: decode_value(value) for name, value in zip(names, row)}
            for row in spec["rows"]
        ]
        for index_name, column, kind in spec.get("indexes", []):
            index = SecondaryIndex(index_name, table.name, column, kind)
            index.rebuild(table.rows)
            table.indexes[index_name] = index
        engine.tables[table.name] = table

    fs.root = Inode("dir", "/")
    for entry in doc.get("fs", []):
        path = entry["path"]
        node = _materialize(fs, path, entry["kind"])
        if entry["kind"] == "file":
            node.data = bytes.fromhex(entry.get("data", ""))
        for name, value in entry.get("xattrs", {}).items():
            node.xattrs[name] = _restore_xattr(value, tolerant=tolerant)


def _materialize(fs: FileSystem, path: str, kind: str) -> Inode:
    if path == "/":
        return fs.root
    parent = fs.root
    parts = fspath.parts(path)
    for part in parts[:-1]:
        child = parent.entries.get(part)
        if child is None:
            child = Inode("dir", part)
            parent.entries[part] = child
        parent = child
    name = parts[-1]
    node = parent.entries.get(name)
    if node is None or node.kind != kind:
        node = Inode(kind, name)
        parent.entries[name] = node
    return node


def _restore_xattr(value: Any, *, tolerant: bool) -> Any:
    if isinstance(value, Mapping) and "__filter__" in value:
        return deserialize_filter(value["__filter__"], tolerant=tolerant)
    return decode_value(value)


# -- snapshot files -----------------------------------------------------------


def _snapshot_name(wal_start: int) -> str:
    return f"{SNAPSHOT_PREFIX}{wal_start:08d}{_SNAPSHOT_SUFFIX}"


def _parse_snapshot_id(name: str) -> Optional[int]:
    if not (name.startswith(SNAPSHOT_PREFIX) and name.endswith(_SNAPSHOT_SUFFIX)):
        return None
    try:
        return int(name[len(SNAPSHOT_PREFIX) : -len(_SNAPSHOT_SUFFIX)])
    except ValueError:
        return None


def snapshot_ids(directory: str) -> List[int]:
    ids = []
    for name in os.listdir(directory):
        wal_start = _parse_snapshot_id(name)
        if wal_start is not None:
            ids.append(wal_start)
    return sorted(ids)


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
        if sync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if sync:
        _fsync_directory(directory)
    return path


def load_snapshot(directory: str, wal_start: int) -> Optional[Dict[str, Any]]:
    path = os.path.join(directory, _snapshot_name(wal_start))
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    records, valid = decode_records(data, max_record_bytes=None)
    if len(records) != 1 or valid != len(data):
        return None
    doc = records[0]
    if doc.get("version") != SNAPSHOT_VERSION or "wal_start" not in doc:
        return None
    return doc


def load_latest_snapshot(directory: str) -> Optional[Dict[str, Any]]:
    """The newest snapshot that validates (CRC + structure), or ``None``
    when no snapshot file exists (a fresh store).

    Scans newest-first so a corrupt newest snapshot falls back to an older
    valid one — the WAL segments it would have retired are still on disk,
    so recovery stays exact.  But when snapshot files *exist* and none
    validates (corruption/bitrot), there is no state to fall back to —
    compaction already deleted the WAL prefix they covered — so this raises
    :class:`~repro.core.exceptions.RecoveryError` rather than letting
    recovery silently present an empty store as success."""
    ids = snapshot_ids(directory)
    for wal_start in reversed(ids):
        doc = load_snapshot(directory, wal_start)
        if doc is not None:
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


def _fsync_directory(directory: str) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
