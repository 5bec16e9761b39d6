"""Crash recovery: replay the latest snapshot's records, then the WAL tail.

Recovery is a pure fold from empty state: apply the newest valid snapshot's
records (the store written as WAL records), then every WAL record from
segment ``wal_start`` onwards, in log order.  Replay applies *physical*
effects — the records the engine and filesystem logged are row images and
byte images, not statements — so the recovered state is byte-identical to
what the committed prefix of the log described, independent of expression
evaluation or filter behaviour.

Torn final records are tolerated by construction: the WAL reader stops at
the first frame whose length/CRC/JSON does not validate
(:func:`repro.storage.framing.decode_records`), so a crash mid-append simply
recovers the state as of the last complete record.

Replay bypasses the RESIN-aware layers (``Database``/``ResinFS``) and their
filters on purpose: the checks already ran when the operation was first
admitted and logged, and re-running them would need the original request
context (the authenticated user) which no longer exists.  Nothing re-logs
either — the durability service only attaches to the environment after
replay finishes.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.exceptions import SerializationError
from ..fs.filesystem import FileSystem, Inode
from ..fs import path as fspath
from ..fs.resinfs import FILTER_XATTR, POLICY_XATTR
from ..sql import nodes
from ..sql.engine import Engine, Table
from ..sql.indexes import SecondaryIndex
from .snapshot import deserialize_filter
from .framing import decode_value

__all__ = ["apply_record", "replay"]


def replay(records, engine: Engine, fs: FileSystem, *, tolerant: bool = False) -> int:
    """Apply ``records`` (an iterable of decoded WAL records) in order;
    returns the count applied."""
    applied = 0
    for record in records:
        apply_record(record, engine, fs, tolerant=tolerant)
        applied += 1
    return applied


def apply_record(
    record: Dict[str, Any], engine: Engine, fs: FileSystem, *, tolerant: bool = False
) -> None:
    op = record.get("op")
    handler = _HANDLERS.get(op)
    if handler is None:
        if tolerant:
            # A newer deployment may log record types this one does not
            # know; skipping is the best a tolerant reader can do.
            return
        raise SerializationError(f"unknown WAL record type {op!r}")
    handler(record, engine, fs, tolerant)


# -- SQL records --------------------------------------------------------------


def _sql_create(record, engine: Engine, fs, tolerant) -> None:
    name = record["table"]
    if name in engine.tables:
        return
    columns = [
        nodes.ColumnDef(col, type, tuple(constraints))
        for col, type, constraints in record["columns"]
    ]
    engine.tables[name] = Table(name, columns)


def _sql_drop(record, engine: Engine, fs, tolerant) -> None:
    engine.tables.pop(record["table"], None)


def _sql_table(record, engine: Engine) -> Table:
    table = engine.tables.get(record["table"])
    if table is None:
        raise SerializationError(
            f"WAL references unknown table {record['table']!r}"
        )
    # Records carry the full column list of the moment they were logged, so
    # lazily-added columns (the SQL channel's policy columns) materialize
    # during replay exactly as they did live.
    for name in record["columns"]:
        if not table.has_column(name):
            table.add_column(nodes.ColumnDef(name, "TEXT"))
    return table


def _sql_insert(record, engine: Engine, fs, tolerant) -> None:
    table = _sql_table(record, engine)
    names = record["columns"]
    first = len(table.rows)
    for values in record["rows"]:
        row = {name: None for name in table.column_names}
        row.update(zip(names, (decode_value(v) for v in values)))
        table.rows.append(row)
    # Mirror the engine's live maintenance: appended rows enter the
    # secondary indexes incrementally (positions only grow on insert).
    for index in table.indexes.values():
        for position in range(first, len(table.rows)):
            index.add_row(position, table.rows[position])


def _sql_update(record, engine: Engine, fs, tolerant) -> None:
    table = _sql_table(record, engine)
    names = record["columns"]
    for index, values in record["updates"]:
        if not 0 <= index < len(table.rows):
            raise SerializationError(
                f"WAL update index {index} out of range for table "
                f"{table.name!r}"
            )
        table.rows[index].update(zip(names, (decode_value(v) for v in values)))
    _rebuild_indexes(table)


def _sql_delete(record, engine: Engine, fs, tolerant) -> None:
    table = _sql_table(record, engine)
    doomed = set(record["indices"])
    table.rows = [
        row for index, row in enumerate(table.rows) if index not in doomed
    ]
    _rebuild_indexes(table)


def _rebuild_indexes(table: Table) -> None:
    for index in table.indexes.values():
        index.rebuild(table.rows)


def _sql_create_index(record, engine: Engine, fs, tolerant) -> None:
    # The WAL stores only the index *definition*; the contents are derived
    # state, rebuilt here from the rows recovered so far (and maintained by
    # the replay handlers above for the records that follow).
    table = engine.tables.get(record["table"])
    if table is None:
        if tolerant:
            return
        raise SerializationError(
            f"WAL references unknown table {record['table']!r}"
        )
    name = record["index"]
    index = SecondaryIndex(
        name, record["table"], record["column"], record.get("kind", "sorted")
    )
    index.rebuild(table.rows)
    table.indexes[name] = index


def _sql_drop_index(record, engine: Engine, fs, tolerant) -> None:
    table = engine.tables.get(record.get("table", ""))
    if table is not None:
        table.indexes.pop(record["index"], None)


# -- filesystem records -------------------------------------------------------


def _fs_node(fs: FileSystem, path: str) -> Inode:
    node = fs._lookup(path)
    if node is None:
        raise SerializationError(f"WAL references unknown path {path!r}")
    return node


def _fs_write(record, engine, fs: FileSystem, tolerant) -> None:
    path = record["path"]
    data = bytes.fromhex(record["data"])
    parent = fs._lookup(fspath.dirname(path))
    if parent is None or not parent.is_dir:
        raise SerializationError(
            f"WAL write to {path!r} but its directory does not exist"
        )
    name = fspath.basename(path)
    node = parent.entries.get(name)
    if node is None or not node.is_file:
        node = Inode("file", name)
        parent.entries[name] = node
    node.data = data
    policies = record.get("policies")
    if policies is None:
        node.xattrs.pop(POLICY_XATTR, None)
    else:
        node.xattrs[POLICY_XATTR] = policies


def _fs_mkdir(record, engine, fs: FileSystem, tolerant) -> None:
    path = record["path"]
    parent = fs.root
    for part in fspath.parts(path):
        child = parent.entries.get(part)
        if child is None:
            child = Inode("dir", part)
            parent.entries[part] = child
        elif not child.is_dir:
            raise SerializationError(
                f"WAL mkdir {path!r} collides with an existing file"
            )
        parent = child


def _fs_unlink(record, engine, fs: FileSystem, tolerant) -> None:
    path = record["path"]
    parent = fs._lookup(fspath.dirname(path))
    if parent is not None and parent.is_dir:
        parent.entries.pop(fspath.basename(path), None)


def _fs_rename(record, engine, fs: FileSystem, tolerant) -> None:
    src, dst = record["src"], record["dst"]
    node = _fs_node(fs, src)
    src_parent = _fs_node(fs, fspath.dirname(src))
    dst_parent = _fs_node(fs, fspath.dirname(dst))
    del src_parent.entries[fspath.basename(src)]
    node.name = fspath.basename(dst)
    dst_parent.entries[node.name] = node


def _fs_filter(record, engine, fs: FileSystem, tolerant) -> None:
    node = _fs_node(fs, record["path"])
    node.xattrs[FILTER_XATTR] = deserialize_filter(
        record["filter"], tolerant=tolerant
    )


def _fs_unfilter(record, engine, fs: FileSystem, tolerant) -> None:
    node = _fs_node(fs, record["path"])
    node.xattrs.pop(FILTER_XATTR, None)


_HANDLERS = {
    "sql.create": _sql_create,
    "sql.drop": _sql_drop,
    "sql.insert": _sql_insert,
    "sql.update": _sql_update,
    "sql.delete": _sql_delete,
    "sql.create_index": _sql_create_index,
    "sql.drop_index": _sql_drop_index,
    "fs.write": _fs_write,
    "fs.mkdir": _fs_mkdir,
    "fs.unlink": _fs_unlink,
    "fs.rename": _fs_rename,
    "fs.filter": _fs_filter,
    "fs.unfilter": _fs_unfilter,
}
