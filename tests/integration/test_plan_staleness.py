"""Prepared plans never go stale.

An engine plans and compiles each statement shape once and keeps the
compiled plan with its table's catalog stamp (``repro.sql.engine``).  Here
every statement of the plan-vs-naive corpus (``test_plan_differential.py``)
runs cold, then the catalog changes in one of these ways, and the same
statement runs again through its prepared plan:

* CREATE INDEX on the columns the corpus probes, and DROP INDEX of them;
* DROP TABLE, then CREATE TABLE with other columns;
* a RESIN write that adds a ``__policy_*`` column;
* a durable close and reopen into the same engine, through WAL replay and
  through a snapshot.

Every execution must equal the naive full-scan reference over the catalog
and rows of that moment: the same rows, or the same ``SQLError``.  The
corpus adds two statements that name a policy column, which a plan compiled
before the column existed would read as NULL.  Since an index only narrows
a scan, a SELECT's prepared execution must also probe exactly the indexes
the EXPLAIN of a fresh plan names.
"""

import re
import sys
import threading

import pytest

from repro.channels.sqlchan import Database, is_policy_column
from repro.core.exceptions import SQLError
from repro.policies import UntrustedData
from repro.runtime_api import Resin
from repro.sql.engine import Engine
from repro.sql.indexes import SecondaryIndex
from repro.sql.parser import parse
from repro.storage.durability import SERVICE_NAME, Durability
from repro.tracking.propagation import concat
from repro.tracking.tainted_str import taint_str
from test_plan_differential import (FIXTURE, INDEXED_COLUMNS,
                                    MUTATION_CORPUS, SELECT_CORPUS,
                                    delete_reference, select_reference,
                                    update_reference)

CORPUS = SELECT_CORPUS + [
    "SELECT id, __policy_note FROM items WHERE id <= 2",
    "SELECT count(__policy_note) FROM items",
]

#: The table a DROP and CREATE leave behind: other columns, other types.
RECREATED = [
    "DROP TABLE items",
    "CREATE TABLE items (id TEXT, grp INTEGER, name INTEGER, extra TEXT)",
    "INSERT INTO items (id, grp, name, extra) VALUES "
    "('3', 10, 1, 'e'), ('5', 30, 2, NULL), ('x', 20, NULL, 'f'), "
    "('1', NULL, 4, 'g')",
]


def create_indexes(db, path):
    for table, column in INDEXED_COLUMNS:
        db.create_index(table, column)
    return db


def drop_indexes(db, path):
    for name in sorted(db.engine.tables["items"].indexes):
        db.engine.run(f"DROP INDEX {name}")
    return db


def recreate(db, path):
    for sql in RECREATED:
        db.engine.run(sql)
    return db


def policy_write(db, path):
    # The fixture's table has no policy columns: this write adds
    # ``__policy_note`` as it stores the tainted value.
    db.query(concat("UPDATE items SET note = '",
                    taint_str("tainted", UntrustedData("form")),
                    "' WHERE id IN (1, 2)"))
    assert db.engine.tables["items"].has_column("__policy_note")
    return db


def reopen_from_wal(db, path):
    db.env.services.get(SERVICE_NAME).close()
    # What a fresh engine holds before replay; the plan cache stays.
    db.engine.tables.clear()
    Durability.open(db.env, path, sync="flush")
    return db


def reopen_from_snapshot(db, path):
    durability = db.env.services.get(SERVICE_NAME)
    durability.checkpoint()
    durability.close()
    # Recovery from the snapshot empties the engine's tables itself.
    Durability.open(db.env, path, sync="flush")
    return db


#: (name, indexed before the change, durable, change)
CHANGES = [
    ("create-index", False, False, create_indexes),
    ("drop-index", True, False, drop_indexes),
    ("drop-and-create-table", True, False, recreate),
    ("policy-column", True, False, policy_write),
    ("reopen-wal", True, True, reopen_from_wal),
    ("reopen-snapshot", True, True, reopen_from_snapshot),
]


def build(indexed, durable, path):
    """The fixture table, created through the engine (so it has no policy
    columns), behind a database with policy cells."""
    if durable:
        db = Resin.open(str(path), sync="flush").db
    else:
        db = Database(Engine())
    for sql in FIXTURE:
        db.engine.run(sql)
    if indexed:
        create_indexes(db, path)
    return db


def outcome(run):
    """A statement's result as columns, rows and row count, or its error."""
    try:
        result = run()
    except SQLError as exc:
        return "SQLError", str(exc)
    return result.columns, [row.values_list() for row in result], result.rowcount


def reference(engine, sql):
    """The naive reference's outcome over the engine's rows of this moment."""
    return outcome(lambda: select_reference(engine, parse(sql)))


def data_reference(engine, sql):
    """The reference with ``*`` expanded to the data columns, as the policy
    cells expand it."""
    table = engine.tables["items"]
    data = [name for name in table.column_names if not is_policy_column(name)]
    return reference(engine, sql.replace("SELECT * ", f"SELECT {', '.join(data)} "))


def close(db):
    durability = db.env.services.get(SERVICE_NAME) if db.env else None
    if durability is not None:
        durability.close()


@pytest.fixture
def probed(monkeypatch):
    """The name of each index probed, in order."""
    names = []
    for method in ("lookup_eq", "lookup_range"):
        original = getattr(SecondaryIndex, method)

        def spy(index, *args, _original=original):
            names.append(index.name)
            return _original(index, *args)

        monkeypatch.setattr(SecondaryIndex, method, spy)
    return names


@pytest.mark.parametrize("sql", CORPUS)
@pytest.mark.parametrize("name, indexed, durable, change", CHANGES,
                         ids=[change[0] for change in CHANGES])
def test_a_select_plan_follows_the_catalog(sql, name, indexed, durable,
                                           change, tmp_path, probed):
    db = build(indexed, durable, tmp_path / "store")
    try:
        cold = outcome(lambda: db.query(sql).result)
        assert cold == data_reference(db.engine, sql)
        db = change(db, tmp_path / "store")
        plan = "\n".join(db.engine.explain_lines(sql))
        fresh = re.findall(r" USING (\w+) ", plan)
        probed.clear()
        prepared = outcome(lambda: db.query(sql).result)
        assert prepared == data_reference(db.engine, sql), name
        assert probed == fresh
        # The same plan through the stored cells: ``*`` is every column.
        assert outcome(lambda: db.engine.run(sql)) == reference(db.engine, sql)
    finally:
        close(db)


def data_state(engine):
    """The table's data cells, row by row (policy columns left out)."""
    table = engine.tables["items"]
    names = [name for name in table.column_names if not is_policy_column(name)]
    return [[row[name] for name in names] for row in table.rows]


@pytest.mark.parametrize("sql", MUTATION_CORPUS)
@pytest.mark.parametrize("name, indexed, durable, change", CHANGES,
                         ids=[change[0] for change in CHANGES])
def test_a_write_plan_follows_the_catalog(sql, name, indexed, durable,
                                          change, tmp_path):
    """The write runs on the planned database and on a naive twin, before
    and after the change; row counts, errors and data cells must agree."""
    statement = parse(sql)
    naive = {"Update": update_reference, "Delete": delete_reference}[
        type(statement).__name__]
    db = build(indexed, durable, tmp_path / "store")
    twin = build(False, False, tmp_path / "twin")
    try:
        for attempt in ("cold", "prepared"):
            if attempt == "prepared":
                db = change(db, tmp_path / "store")
                if change is recreate:
                    recreate(twin, None)
                if change is policy_write:
                    twin.engine.run("UPDATE items SET note = 'tainted' "
                                    "WHERE id IN (1, 2)")
            got = outcome(lambda: db.query(sql).result)
            expected = outcome(lambda: naive(twin.engine, parse(sql)))
            assert got[0] == expected[0] and got[-1] == expected[-1], attempt
            assert data_state(db.engine) == data_state(twin.engine), attempt
    finally:
        close(db)


def test_readers_follow_an_index_that_comes_and_goes():
    """Four threads run one shape, each with its own values, while another
    creates and drops the index that shape probes: every execution returns
    its own row, through whichever plan its table's stamp allows."""
    db = build(False, False, None)
    errors = []
    done = threading.Event()

    def read(worker):
        try:
            for n in range(300):
                key = (worker + n) % 8 + 1
                rows = db.query(f"SELECT id, name FROM items WHERE id = {key}")
                assert [row["id"] for row in rows] == [key]
        except Exception as exc:  # surfaced below
            errors.append(exc)

    def flip():
        while not done.is_set():
            db.create_index("items", "id")
            db.engine.run("DROP INDEX idx_items_id")

    readers = [threading.Thread(target=read, args=(worker,)) for worker in range(4)]
    flipper = threading.Thread(target=flip)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        flipper.start()
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        done.set()
        flipper.join(timeout=60)
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in readers + [flipper])
    assert not errors
