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
context (the authenticated user) which no longer exists.  Below those
layers it applies each record with the mutator the live path used —
``Table.append_rows``/``delete_rows``/``rebuild_indexes``/``add_index`` and
the raw ``FileSystem`` operations — so rows, indexes and the inode tree
change the same way in both.  A record those mutators refuse (a write onto
a directory, an unlink of a missing path or a non-empty directory, ...)
aborts recovery with their error, in strict and tolerant mode alike: a
valid log never holds one, because the live path refused the same
operation before logging it.  Nothing re-logs either — the durability
service only attaches to the environment after replay finishes.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.exceptions import SerializationError
from ..core.serialization import deserialize_filter
from ..fs.filesystem import FileSystem
from ..fs.resinfs import FILTER_XATTR, POLICY_XATTR
from ..sql import nodes
from ..sql.engine import Engine, Table
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
    rows = []
    for values in record["rows"]:
        row = {name: None for name in table.column_names}
        row.update(zip(names, (decode_value(v) for v in values)))
        rows.append(row)
    table.append_rows(rows)


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
    table.rebuild_indexes()


def _sql_delete(record, engine: Engine, fs, tolerant) -> None:
    _sql_table(record, engine).delete_rows(record["indices"])


def _sql_create_index(record, engine: Engine, fs, tolerant) -> None:
    # The WAL stores only the index *definition*; the contents are derived
    # state, built here from the rows recovered so far (and maintained by
    # the appliers for the records that follow).
    table = engine.tables.get(record["table"])
    if table is None:
        if tolerant:
            return
        raise SerializationError(
            f"WAL references unknown table {record['table']!r}"
        )
    table.add_index(record["index"], record["column"], record.get("kind", "sorted"))


def _sql_drop_index(record, engine: Engine, fs, tolerant) -> None:
    table = engine.tables.get(record.get("table", ""))
    if table is not None:
        table.drop_index(record["index"])


# -- filesystem records -------------------------------------------------------


def _fs_write(record, engine, fs: FileSystem, tolerant) -> None:
    path = record["path"]
    fs.write_raw(path, bytes.fromhex(record["data"]))
    policies = record.get("policies")
    if policies is None:
        fs.remove_xattr(path, POLICY_XATTR)
    else:
        fs.set_xattr(path, POLICY_XATTR, policies)


def _fs_mkdir(record, engine, fs: FileSystem, tolerant) -> None:
    fs.mkdir(record["path"], parents=True)


def _fs_unlink(record, engine, fs: FileSystem, tolerant) -> None:
    fs.unlink(record["path"])


def _fs_rename(record, engine, fs: FileSystem, tolerant) -> None:
    fs.rename(record["src"], record["dst"])


def _fs_filter(record, engine, fs: FileSystem, tolerant) -> None:
    flt = deserialize_filter(record["filter"], tolerant=tolerant)
    fs.set_xattr(record["path"], FILTER_XATTR, flt)


def _fs_unfilter(record, engine, fs: FileSystem, tolerant) -> None:
    fs.remove_xattr(record["path"], FILTER_XATTR)


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
