"""Integration tests for the query-plan pipeline.

* **Differential harness**: every SELECT / UPDATE / DELETE in the corpus
  runs through both the planned executor and the retained reference scan
  path (``_select_reference`` / ``_update_reference`` /
  ``_delete_reference``), on indexed and unindexed engines, asserting
  identical result rows and identical table state.
* **Concurrent index maintenance**: writer threads mutate an indexed table
  under ``db.transaction`` while the indexes must stay complete.
* **Index durability**: index definitions survive a durable close/reopen,
  via WAL replay and via snapshot restore.
"""

import threading

import pytest

from repro.channels.sqlchan import Database
from repro.runtime_api import Resin
from repro.sql.engine import Engine

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
        reference = engine._select_reference(stmt)
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
                b = reference._update_reference(stmt)
            else:
                b = reference._delete_reference(stmt)
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
