"""Integration tests for the query-plan pipeline.

* **Differential harness**: every SELECT / UPDATE / DELETE in the corpus
  runs through both the planned executor and the naive full-scan oracle
  below (``select_reference`` / ``update_reference`` /
  ``delete_reference``), on indexed and unindexed engines, asserting
  identical result rows and identical table state.
* **Concurrent index maintenance**: writer threads mutate an indexed table
  under ``db.transaction`` while the indexes must stay complete.
* **Index durability**: index definitions survive a durable close/reopen,
  via WAL replay and via snapshot restore.
"""

import threading

import pytest

from repro.channels.sqlchan import Database
from repro.core.exceptions import SQLError
from repro.runtime_api import Resin
from repro.sql import nodes
from repro.sql.engine import Engine, Result
from repro.sql.executor import evaluate, evaluate_aggregate, sort_key, stored_value

# One fixture table with mixed-type cells: the engine's comparison
# semantics (numeric/string coercion, NULLs, case-insensitive LIKE) are
# exactly what the index candidate generator must not break.
FIXTURE = [
    "CREATE TABLE items (id INTEGER, grp INTEGER, name TEXT, "
    "score REAL, note TEXT)",
    "INSERT INTO items (id, grp, name, score, note) VALUES "
    "(1, 10, 'alpha', 1.5, 'x'), "
    "(2, 10, 'Beta', 2.0, NULL), "
    "(3, 20, 'gamma', NULL, '50%+'), "
    "(4, 20, 'delta', -3.25, 'a.b_c'), "
    "(5, 30, '1', 100, 'one'), "
    "(6, 30, '1.0', 0.0, 'one'), "
    "(7, NULL, 'zeta', 7, 'Z'), "
    "(8, 40, NULL, 8.5, 'z')",
]

INDEXED_COLUMNS = [("items", "id"), ("items", "grp"), ("items", "name")]

SELECT_CORPUS = [
    "SELECT * FROM items",
    "SELECT id, name FROM items WHERE id = 3",
    "SELECT id FROM items WHERE id = '3'",
    "SELECT id FROM items WHERE name = '1'",
    "SELECT id FROM items WHERE name = 1",
    "SELECT id FROM items WHERE grp = 10 AND score > 1",
    "SELECT id FROM items WHERE grp >= 20 AND grp < 40",
    "SELECT id FROM items WHERE id IN (1, 3, 5, 99)",
    "SELECT id FROM items WHERE id IN ('2', 4)",
    "SELECT id FROM items WHERE name LIKE '%a%'",
    "SELECT id FROM items WHERE note LIKE '50%+'",
    "SELECT id FROM items WHERE note LIKE 'a.b_c'",
    "SELECT id FROM items WHERE grp IS NULL",
    "SELECT id FROM items WHERE score IS NOT NULL AND score < 5",
    "SELECT id FROM items WHERE NOT (grp = 10)",
    "SELECT id FROM items WHERE grp = 10 OR grp = 30",
    "SELECT DISTINCT note FROM items",
    "SELECT DISTINCT grp FROM items LIMIT 3",
    "SELECT DISTINCT grp FROM items ORDER BY grp DESC LIMIT 2 OFFSET 1",
    "SELECT id, name FROM items ORDER BY name",
    "SELECT id FROM items ORDER BY score DESC, id",
    "SELECT id FROM items ORDER BY grp LIMIT 3 OFFSET 2",
    "SELECT count(*) FROM items WHERE grp = 20",
    "SELECT min(score), max(score), sum(score), avg(score) FROM items",
    "SELECT count(note) FROM items",
    "SELECT upper(name) AS u FROM items WHERE id <= 4 ORDER BY name",
    "SELECT id, grp FROM items WHERE grp <= 20 ORDER BY grp DESC, id DESC",
    "SELECT id FROM items WHERE name < 'gamma'",
    "SELECT id FROM items WHERE name >= '1' AND name <= 'delta'",
    "SELECT id FROM items WHERE id = 2 AND name = 'Beta' AND grp = 10",
    "SELECT id FROM items LIMIT 2",
]

MUTATION_CORPUS = [
    "UPDATE items SET score = 9.9 WHERE grp = 10",
    "UPDATE items SET name = 'renamed', grp = 77 WHERE id IN (3, 5)",
    "UPDATE items SET grp = 31 WHERE grp >= 30",
    "UPDATE items SET note = NULL WHERE note LIKE '%.%'",
    "DELETE FROM items WHERE id = 2",
    "DELETE FROM items WHERE grp IS NULL",
    "UPDATE items SET id = 106 WHERE name = '1.0'",
    "DELETE FROM items WHERE score > 50",
]


# -- the naive full-scan oracle -----------------------------------------------
# The pre-planner engine's statement paths, kept as the reference the planned
# executor must agree with.  They share every comparison and evaluation
# helper with the executor, so any row-set divergence is a planner/index bug
# by construction.  The UPDATE/DELETE oracles run only on unindexed,
# non-durable engines, so they neither log to a WAL nor maintain indexes.


def _matches(where, row, table) -> bool:
    return where is None or bool(evaluate(where, row, table))


def _is_aggregate_select(stmt) -> bool:
    return any(
        isinstance(item.expr, nodes.FuncCall)
        and item.expr.name in ("count", "min", "max", "sum", "avg")
        for item in stmt.items
    )


def select_reference(engine: Engine, stmt) -> Result:
    if stmt.table is None:
        # SELECT without FROM: evaluate items against an empty row.
        columns = [item.output_name for item in stmt.items]
        values = [evaluate(item.expr, {}, None) for item in stmt.items]
        return Result(columns, [values])

    table = engine.table(stmt.table)
    matching = [row for row in table.rows if _matches(stmt.where, row, table)]

    if _is_aggregate_select(stmt):
        columns = [item.output_name for item in stmt.items]
        values = [
            evaluate_aggregate(item.expr, matching, table) for item in stmt.items
        ]
        return Result(columns, [values])

    for ordering in reversed(stmt.order_by):
        matching = sorted(
            matching,
            key=lambda row: sort_key(evaluate(ordering.expr, row, table)),
            reverse=ordering.descending,
        )

    columns = []
    for item in stmt.items:
        if isinstance(item.expr, nodes.Star):
            columns.extend(table.column_names)
        else:
            columns.append(item.output_name)

    result_rows = []
    seen = set()
    for row in matching:
        values = []
        for item in stmt.items:
            if isinstance(item.expr, nodes.Star):
                values.extend(row[name] for name in table.column_names)
            else:
                values.append(evaluate(item.expr, row, table))
        if stmt.distinct:
            key = tuple(str(v) for v in values)
            if key in seen:
                continue
            seen.add(key)
        result_rows.append(values)

    # DISTINCT first, then OFFSET / LIMIT.
    if stmt.offset:
        result_rows = result_rows[stmt.offset:]
    if stmt.limit is not None:
        result_rows = result_rows[:stmt.limit]
    return Result(columns, result_rows)


def update_reference(engine: Engine, stmt) -> Result:
    table = engine.table(stmt.table)
    for column, _ in stmt.assignments:
        if not table.has_column(column):
            raise SQLError(f"table {table.name} has no column {column!r}")
    touched = 0
    for row in table.rows:
        if _matches(stmt.where, row, table):
            for column, expr in stmt.assignments:
                row[column] = stored_value(evaluate(expr, row, table))
            touched += 1
    return Result(rowcount=touched)


def delete_reference(engine: Engine, stmt) -> Result:
    table = engine.table(stmt.table)
    keep = [row for row in table.rows if not _matches(stmt.where, row, table)]
    doomed = len(table.rows) - len(keep)
    table.rows = keep
    return Result(rowcount=doomed)


def build_engine(indexed: bool) -> Engine:
    engine = Engine()
    for sql in FIXTURE:
        engine.run(sql)
    if indexed:
        for table, column in INDEXED_COLUMNS:
            engine.create_index(table, column)
    return engine


def table_state(engine: Engine):
    table = engine.tables["items"]
    return [[row.get(c) for c in table.column_names] for row in table.rows]


def result_rows(result):
    return [[row[c] for c in result.columns] for row in result.rows]


class TestSelectDifferential:
    @pytest.mark.parametrize("indexed", [False, True])
    @pytest.mark.parametrize("sql", SELECT_CORPUS)
    def test_planned_matches_reference(self, sql, indexed):
        engine = build_engine(indexed)
        from repro.sql.parser import parse
        stmt = parse(sql)
        planned = engine.run(sql)
        reference = select_reference(engine, stmt)
        assert result_rows(planned) == result_rows(reference)
        assert planned.columns == reference.columns

    @pytest.mark.parametrize("sql", SELECT_CORPUS)
    def test_indexed_matches_unindexed(self, sql):
        assert (result_rows(build_engine(True).run(sql))
                == result_rows(build_engine(False).run(sql)))


class TestMutationDifferential:
    @pytest.mark.parametrize("indexed", [False, True])
    def test_mutation_corpus_matches_reference_engine(self, indexed):
        from repro.sql.parser import parse
        planned = build_engine(indexed)
        reference = build_engine(False)
        for sql in MUTATION_CORPUS:
            stmt = parse(sql)
            a = planned.run(sql)
            if stmt.__class__.__name__ == "Update":
                b = update_reference(reference, stmt)
            else:
                b = delete_reference(reference, stmt)
            assert a.rowcount == b.rowcount, sql
            assert table_state(planned) == table_state(reference), sql
        # After the whole corpus the indexes are still exact.
        for name, index in planned.tables["items"].indexes.items():
            rows = planned.tables["items"].rows
            for row in rows:
                value = row.get(index.column)
                if value is None:
                    continue
                positions = index.lookup_eq([value])
                assert any(rows[p].get(index.column) == value
                           for p in positions), (name, value)


class TestConcurrentIndexMaintenance:
    def test_transaction_writers_keep_index_complete(self):
        db = Database()
        db.execute_unchecked(
            "CREATE TABLE ledger (id INTEGER, owner TEXT, amount INTEGER)")
        db.create_index("ledger", "owner")
        errors = []

        def writer(worker: int):
            try:
                for n in range(25):
                    key = worker * 1000 + n
                    with db.transaction("ledger"):
                        db.query(f"INSERT INTO ledger (id, owner, amount) "
                                 f"VALUES ({key}, 'w{worker}', {n})")
                    if n % 5 == 4:
                        with db.transaction("ledger"):
                            db.query(f"UPDATE ledger SET amount = 999 "
                                     f"WHERE id = {key}")
                    if n % 7 == 6:
                        with db.transaction("ledger"):
                            db.query(f"DELETE FROM ledger WHERE id = {key}")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

        table = db.engine.tables["ledger"]
        index = table.indexes["idx_ledger_owner"]
        for worker in range(6):
            expected = sorted(pos for pos, row in enumerate(table.rows)
                              if row["owner"] == f"w{worker}")
            candidates = index.lookup_eq([f"w{worker}"])
            matching = [pos for pos in candidates
                        if table.rows[pos]["owner"] == f"w{worker}"]
            assert matching == expected
            via_sql = db.query(
                f"SELECT count(*) FROM ledger WHERE owner = 'w{worker}'"
            ).scalar()
            assert via_sql == len(expected)


class TestIndexDurability:
    def test_indexes_survive_wal_replay(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        resin.db.query("CREATE TABLE kv (k INTEGER, v TEXT)")
        resin.db.create_index("kv", "k")
        for n in range(10):
            resin.db.query(f"INSERT INTO kv (k, v) VALUES ({n}, 'v{n}')")
        resin.db.query("DELETE FROM kv WHERE k = 4")
        resin.durability.close()

        resin2 = Resin.open(store)
        table = resin2.db.engine.tables["kv"]
        assert set(table.indexes) == {"idx_kv_k"}
        lines = [r["plan"] for r in resin2.db.query(
            "EXPLAIN SELECT v FROM kv WHERE k = 7").rows]
        assert any("IndexLookup" in line for line in lines)
        assert resin2.db.query("SELECT v FROM kv WHERE k = 7").scalar() == "v7"
        assert resin2.db.query("SELECT count(*) FROM kv WHERE k = 4"
                               ).scalar() == 0
        resin2.durability.close()

    def test_indexes_survive_snapshot_restore(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        resin.db.query("CREATE TABLE kv (k INTEGER, v TEXT)")
        resin.db.create_index("kv", "k")
        for n in range(10):
            resin.db.query(f"INSERT INTO kv (k, v) VALUES ({n}, 'v{n}')")
        resin.durability.checkpoint()
        resin.durability.close()

        resin2 = Resin.open(store)
        table = resin2.db.engine.tables["kv"]
        assert set(table.indexes) == {"idx_kv_k"}
        assert [table.rows[p]["v"] for p in
                table.indexes["idx_kv_k"].lookup_eq([3])] == ["v3"]
        resin2.durability.close()

    def test_dropped_index_stays_dropped(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        resin.db.query("CREATE TABLE kv (k INTEGER)")
        resin.db.create_index("kv", "k")
        resin.db.engine.run("DROP INDEX idx_kv_k")
        resin.durability.close()
        resin2 = Resin.open(store)
        assert not resin2.db.engine.tables["kv"].indexes
        resin2.durability.close()
