"""Unit tests for the query-plan pipeline: planner shapes, the stable
``explain()`` contract, index DDL parsing, parameter binding, the
``PreparedQuery`` handle, and property tests for the semantics helpers
(``sql_like``, ``sort_key``) and the index candidate generator."""

import math
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.channels.sqlchan import Database, PreparedQuery
from repro.core.exceptions import SQLError
from repro.sql.engine import Engine
from repro.sql.executor import sort_key, sql_like
from repro.sql.indexes import SecondaryIndex
from repro.sql.parser import parse
from repro.sql.planner import bind_parameters, collect_params


def engine_with_rows():
    engine = Engine()
    engine.run("CREATE TABLE t (id INTEGER, grp INTEGER, name TEXT)")
    engine.run("INSERT INTO t (id, grp, name) VALUES "
               "(1, 10, 'a'), (2, 10, 'b'), (3, 20, 'c'), (4, 20, 'd')")
    return engine


class TestPlanShapes:
    def test_seq_scan_without_index(self):
        engine = engine_with_rows()
        lines = engine.explain_lines("SELECT name FROM t WHERE id = 2")
        assert lines[0] == "Project [name]"
        assert lines[1] == "  Filter (id = 2)"
        assert lines[2] == "    SeqScan t"

    def test_index_lookup_with_index(self):
        engine = engine_with_rows()
        engine.create_index("t", "id")
        lines = engine.explain_lines("SELECT name FROM t WHERE id = 2")
        assert lines[2] == "    IndexLookup t.id USING idx_t_id (sorted) probes=[2]"

    def test_index_range(self):
        engine = engine_with_rows()
        engine.create_index("t", "id")
        lines = engine.explain_lines(
            "SELECT name FROM t WHERE id >= 2 AND id < 4")
        assert any(line.strip().startswith("IndexRange t.id") for line in lines)

    def test_filter_always_reapplies_where(self):
        # The index is only a candidate generator: the Filter node sits
        # above every access path, even a fully-covering IndexLookup.
        engine = engine_with_rows()
        engine.create_index("t", "id")
        lines = engine.explain_lines("SELECT name FROM t WHERE id = 2")
        assert any("Filter" in line for line in lines)

    def test_order_limit_nodes(self):
        engine = engine_with_rows()
        lines = engine.explain_lines(
            "SELECT name FROM t ORDER BY id DESC LIMIT 2 OFFSET 1")
        joined = "\n".join(lines)
        assert "Sort" in joined and "Slice" in joined

    def test_aggregate_plan(self):
        engine = engine_with_rows()
        lines = engine.explain_lines("SELECT count(*) FROM t WHERE grp = 10")
        assert lines[0].startswith("Aggregate")

    def test_in_list_uses_index_probes(self):
        engine = engine_with_rows()
        engine.create_index("t", "id")
        lines = engine.explain_lines(
            "SELECT name FROM t WHERE id IN (1, 3)")
        assert any("probes=[1, 3]" in line for line in lines)

    def test_two_space_indent_contract(self):
        engine = engine_with_rows()
        engine.create_index("t", "id")
        lines = engine.explain_lines("SELECT name FROM t WHERE id = 2")
        for depth, line in enumerate(lines):
            assert line.startswith("  " * depth)
            assert not line[depth * 2:].startswith(" ")


class TestIndexDDL:
    def test_create_and_drop_index_sql(self):
        engine = engine_with_rows()
        engine.run("CREATE INDEX idx_by_grp ON t (grp)")
        assert "idx_by_grp" in engine.tables["t"].indexes
        engine.run("DROP INDEX idx_by_grp")
        assert "idx_by_grp" not in engine.tables["t"].indexes

    def test_create_index_using_hash(self):
        engine = engine_with_rows()
        engine.run("CREATE INDEX h ON t (grp) USING hash")
        assert engine.tables["t"].indexes["h"].kind == "hash"

    def test_if_not_exists_and_if_exists(self):
        engine = engine_with_rows()
        engine.run("CREATE INDEX i ON t (id)")
        engine.run("CREATE INDEX IF NOT EXISTS i ON t (id)")
        with pytest.raises(SQLError):
            engine.run("CREATE INDEX i ON t (id)")
        engine.run("DROP INDEX i")
        engine.run("DROP INDEX IF EXISTS i")
        with pytest.raises(SQLError):
            engine.run("DROP INDEX i")

    def test_unknown_column_rejected(self):
        engine = engine_with_rows()
        with pytest.raises(SQLError):
            engine.run("CREATE INDEX bad ON t (nope)")

    def test_explain_statement_roundtrip(self):
        engine = engine_with_rows()
        result = engine.run("EXPLAIN SELECT name FROM t WHERE id = 1")
        assert result.columns == ["plan"]
        assert result.rows[0]["plan"].startswith("Project")

    def test_nested_explain_rejected(self):
        with pytest.raises(SQLError):
            parse("EXPLAIN EXPLAIN SELECT 1")


class TestIndexMaintenance:
    def test_insert_update_delete_keep_index_exact(self):
        engine = engine_with_rows()
        engine.create_index("t", "grp")
        engine.run("INSERT INTO t (id, grp, name) VALUES (5, 10, 'e')")
        engine.run("UPDATE t SET grp = 30 WHERE id = 1")
        engine.run("DELETE FROM t WHERE id = 3")
        index = engine.tables["t"].indexes["idx_t_grp"]
        rows = engine.tables["t"].rows
        for probe in (10, 20, 30, 99):
            expected = [pos for pos, row in enumerate(rows)
                        if row["grp"] == probe]
            got = [pos for pos in index.lookup_eq([probe])
                   if rows[pos]["grp"] == probe]
            assert got == expected

    def test_queries_agree_after_mutations(self):
        engine = engine_with_rows()
        engine.create_index("t", "id")
        engine.run("UPDATE t SET id = 40 WHERE name = 'd'")
        assert [r["name"] for r in
                engine.run("SELECT name FROM t WHERE id = 40").rows] == ["d"]
        assert engine.run("SELECT count(*) FROM t WHERE id = 4").scalar() == 0


class TestParameters:
    def test_collect_and_bind(self):
        stmt = parse("SELECT * FROM t WHERE id = :pk AND grp = :g")
        assert collect_params(stmt) == {"pk", "g"}
        bound = bind_parameters(stmt, {"pk": 2, "g": 10})
        assert collect_params(bound) == set()

    def test_unbound_param_raises_at_execution(self):
        engine = engine_with_rows()
        with pytest.raises(SQLError, match="unbound parameter :pk"):
            engine.run(parse("SELECT * FROM t WHERE id = :pk"))

    def test_param_token_requires_name(self):
        with pytest.raises(SQLError):
            parse("SELECT * FROM t WHERE id = :")


class TestPreparedQuery:
    def make_db(self):
        db = Database()
        db.execute_unchecked("CREATE TABLE t (id INTEGER, name TEXT)")
        db.query("INSERT INTO t (id, name) VALUES (1, 'a'), (2, 'b')")
        return db

    def test_eager_execution_and_result_delegation(self):
        db = self.make_db()
        q = db.query("SELECT name FROM t WHERE id = 1")
        assert isinstance(q, PreparedQuery)
        assert q.scalar() == "a"
        assert [r["name"] for r in q] == ["a"]
        assert len(q) == 1
        assert q.columns == ["name"]

    def test_unbound_params_defer_execution(self):
        db = self.make_db()
        q = db.query("SELECT name FROM t WHERE id = :pk")
        with pytest.raises(SQLError, match="unbound"):
            q.rows
        assert q.run(pk=2).scalar() == "b"
        assert q.run(pk=1).scalar() == "a"

    def test_constructor_params_execute_eagerly(self):
        db = self.make_db()
        q = db.query("SELECT name FROM t WHERE id = :pk", {"pk": 2})
        assert q.scalar() == "b"

    def test_rerun_sees_new_rows(self):
        db = self.make_db()
        q = db.query("SELECT count(*) FROM t")
        assert q.scalar() == 2
        db.query("INSERT INTO t (id, name) VALUES (3, 'c')")
        assert q.run().scalar() == 3

    def test_explain_starts_at_plan_root(self):
        db = self.make_db()
        text = db.query("SELECT name FROM t WHERE id = 1").explain()
        lines = text.splitlines()
        assert lines[0].startswith("Project")

    def test_explain_shows_unbound_params(self):
        db = self.make_db()
        q = db.query("SELECT name FROM t WHERE id = :pk")
        assert ":pk" in q.explain()

    def test_explain_sql_matches_query_explain(self):
        db = self.make_db()
        via_sql = [row["plan"] for row in
                   db.query("EXPLAIN SELECT name FROM t WHERE id = 1").rows]
        via_handle = db.query("SELECT name FROM t WHERE id = 1") \
            .explain().splitlines()
        assert via_sql == via_handle


# -- semantics helpers ---------------------------------------------------------


def like_reference(pattern: str, text: str) -> bool:
    """Naive O(n*m) LIKE matcher (dynamic programming), case-insensitive:
    the oracle for ``sql_like``."""
    p, t = pattern.lower(), text.lower()
    matches = [[False] * (len(t) + 1) for _ in range(len(p) + 1)]
    matches[0][0] = True
    for i in range(1, len(p) + 1):
        if p[i - 1] == "%":
            matches[i][0] = matches[i - 1][0]
    for i in range(1, len(p) + 1):
        for j in range(1, len(t) + 1):
            if p[i - 1] == "%":
                matches[i][j] = matches[i - 1][j] or matches[i][j - 1]
            elif p[i - 1] == "_" or p[i - 1] == t[j - 1]:
                matches[i][j] = matches[i - 1][j - 1]
    return matches[len(p)][len(t)]


class TestSqlLike:
    @pytest.mark.parametrize("pattern,text,expected", [
        ("50%+", "50%+", True),          # regex metachars are literals
        ("50%+", "50 anything+", True),  # % still a wildcard
        ("50%+", "50 anything", False),
        ("a.b_c", "a.bxc", True),
        ("a.b_c", "aXbxc", False),       # . is literal, not any-char
        ("(x)", "(x)", True),
        ("[ab]", "[ab]", True),
        ("[ab]", "a", False),
        ("c\\d", "c\\d", True),
        ("100%", "100 percent", True),
        ("_%", "", False),
        ("%", "", True),
        ("a%z", "a\nz", True),           # wildcards cross newlines
    ])
    def test_metacharacters_are_literal(self, pattern, text, expected):
        assert sql_like(text, pattern) is expected

    @given(pattern=st.text(alphabet=string.printable, max_size=8),
           text=st.text(alphabet=string.printable, max_size=12))
    @settings(max_examples=300)
    def test_matches_reference_matcher(self, pattern, text):
        assert sql_like(text, pattern) == like_reference(pattern, text)


class TestSortKey:
    def test_nan_sorts_with_total_order(self):
        values = [3.0, float("nan"), 1, None, "x", float("nan")]
        ordered = sorted(values, key=sort_key)
        assert ordered[0] is None
        assert math.isnan(ordered[1]) and math.isnan(ordered[2])
        assert ordered[3:] == [1, 3.0, "x"]

    @given(values=st.lists(
        st.one_of(st.none(), st.integers(-10**20, 10**20),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.text(max_size=6)),
        max_size=12))
    @settings(max_examples=150)
    def test_total_order_never_raises(self, values):
        ordered = sorted(values, key=sort_key)
        assert len(ordered) == len(values)


# -- the index as a candidate generator ----------------------------------------

mixed_cells = st.one_of(
    st.none(),
    st.integers(-10**19, 10**19),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet=string.printable, max_size=6),
    st.sampled_from(["1", "1.0", "01", " 1", "nan", "inf", "-0", ""]),
)

probe_values = st.one_of(
    st.integers(-10**19, 10**19),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet=string.printable, max_size=6),
    st.sampled_from(["1", "1.0", "01", " 1", "nan", "inf", "-0", ""]),
)


class TestIndexCompleteness:
    """The only correctness requirement on the index: *no false negatives*.

    Every row the engine's ``=`` / range semantics would match must appear
    among the candidates; the Filter node above discards false positives."""

    @staticmethod
    def build(cells):
        index = SecondaryIndex("i", "t", "c")
        rows = [{"c": cell} for cell in cells]
        index.rebuild(rows)
        return index, rows

    @given(cells=st.lists(mixed_cells, max_size=14), probe=probe_values)
    @settings(max_examples=300)
    def test_equality_candidates_are_superset(self, cells, probe):
        from repro.sql.executor import sql_equal
        index, rows = self.build(cells)
        expected = {pos for pos, row in enumerate(rows)
                    if sql_equal(row["c"], probe)}
        candidates = set(index.lookup_eq([probe]))
        assert expected <= candidates

    @given(cells=st.lists(mixed_cells, max_size=14),
           lo=probe_values, hi=probe_values)
    @settings(max_examples=300)
    def test_range_candidates_are_superset(self, cells, lo, hi):
        from repro.sql.executor import coerce_pair
        index, rows = self.build(cells)

        def in_range(value):
            if value is None:
                return False
            try:
                a, b = coerce_pair(value, lo)
                if not a >= b:
                    return False
                a, b = coerce_pair(value, hi)
                return bool(a <= b)
            except TypeError:
                return False

        expected = {pos for pos, row in enumerate(rows)
                    if in_range(row["c"])}
        candidates = set(index.lookup_range(lo=lo, hi=hi))
        assert expected <= candidates

    @given(cells=st.lists(mixed_cells, max_size=14))
    @settings(max_examples=100)
    def test_incremental_add_equals_rebuild(self, cells):
        incremental = SecondaryIndex("i", "t", "c")
        rows = []
        for position, cell in enumerate(cells):
            rows.append({"c": cell})
            incremental.add_row(position, rows[position])
        rebuilt = SecondaryIndex("i", "t", "c")
        rebuilt.rebuild(rows)
        for probe in list(cells) + [0, "x"]:
            if probe is None:
                continue
            assert (incremental.lookup_eq([probe])
                    == rebuilt.lookup_eq([probe]))
