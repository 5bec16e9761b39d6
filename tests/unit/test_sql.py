"""Unit tests for the SQL substrate: tokenizer, parser, engine."""

import pytest

from repro.channels.sqlchan import _query_param_names
from repro.core.exceptions import SQLError
from repro.core.policyset import PolicySet
from repro.policies import UntrustedData
from repro.security.assertions import SQLGuardFilter
from repro.sql import nodes, parse, tokenize
from repro.sql.engine import Engine
from repro.sql.tokenizer import IDENT, KEYWORD, NUMBER, OP, PUNCT, STRING
from repro.tracking.propagation import concat
from repro.tracking.tainted_str import TaintedStr, taint_str

U = UntrustedData("test")


class TestTokenizer:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT a, b FROM t WHERE x = 1")
        kinds = [t.type for t in tokens]
        assert kinds[:4] == [KEYWORD, IDENT, PUNCT, IDENT]
        assert tokens[-1].type == "EOF"

    def test_keywords_case_insensitive(self):
        assert tokenize("select")[0].value == "select"
        assert tokenize("SeLeCt")[0].value == "select"

    def test_string_literal_with_escaped_quote(self):
        token = tokenize("'it''s'")[0]
        assert token.type == STRING
        assert str(token.value) == "it's"

    def test_string_literal_keeps_policies(self):
        query = concat("SELECT * FROM t WHERE name = '", taint_str("bob", U),
                       "'")
        strings = [t for t in tokenize(query) if t.type == STRING]
        assert strings[0].value.policies() == PolicySet.of(U)

    def test_structure_tokens_keep_policies(self):
        query = concat("SELECT * FROM t WHERE x = ", taint_str("1 OR 1=1", U))
        structural = [t for t in tokenize(query)
                      if t.type in (KEYWORD, IDENT, OP, NUMBER)]
        tainted = [t for t in structural
                   if getattr(t.text, "policies", lambda: PolicySet.empty())()]
        assert tainted  # the injected OR / 1 tokens carry the taint

    def test_numbers(self):
        tokens = tokenize("42 3.14")
        assert tokens[0].value == 42
        assert tokens[1].value == pytest.approx(3.14)

    def test_comments_skipped(self):
        tokens = tokenize("SELECT a FROM t -- trailing comment")
        assert tokens[-2].value == "t"
        tokens = tokenize("SELECT /* inline */ a FROM t")
        assert [t.value for t in tokens if t.type == IDENT] == ["a", "t"]

    def test_operators(self):
        values = [t.value for t in tokenize("a <> b != c <= d >= e < f > g")
                  if t.type == OP]
        assert values == ["!=", "!=", "<=", ">=", "<", ">"]

    def test_backquoted_identifier(self):
        tokens = tokenize("SELECT `weird name` FROM t")
        assert tokens[1].type == IDENT and str(tokens[1].value) == "weird name"

    def test_unterminated_string(self):
        with pytest.raises(SQLError):
            tokenize("SELECT 'oops")

    def test_unterminated_quoted_identifier(self):
        with pytest.raises(SQLError, match="unterminated quoted identifier"):
            tokenize("SELECT a FROM `t")

    def test_unexpected_character(self):
        with pytest.raises(SQLError):
            tokenize("SELECT @foo")


class TestParser:
    def test_create_table(self):
        stmt = parse("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT NOT "
                     "NULL, note VARCHAR(80))")
        assert isinstance(stmt, nodes.CreateTable)
        assert [c.name for c in stmt.columns] == ["id", "name", "note"]
        assert "PRIMARY KEY" in stmt.columns[0].constraints

    def test_create_if_not_exists(self):
        assert parse("CREATE TABLE IF NOT EXISTS t (a TEXT)").if_not_exists

    def test_drop(self):
        assert parse("DROP TABLE IF EXISTS t").if_exists

    def test_insert_multiple_rows(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert len(stmt.rows) == 2
        assert stmt.columns == ["a", "b"]

    def test_insert_arity_mismatch(self):
        with pytest.raises(SQLError):
            parse("INSERT INTO t (a, b) VALUES (1)")

    def test_select_full_clause(self):
        stmt = parse("SELECT DISTINCT a, b AS label FROM t WHERE a = 1 AND "
                     "b LIKE 'x%' ORDER BY a DESC LIMIT 5 OFFSET 2")
        assert stmt.distinct
        assert stmt.items[1].alias == "label"
        assert stmt.limit == 5 and stmt.offset == 2
        assert stmt.order_by[0].descending

    def test_select_star_and_functions(self):
        stmt = parse("SELECT COUNT(*), MAX(score) FROM t")
        assert stmt.items[0].expr.star
        assert stmt.items[1].expr.name == "max"

    def test_where_operators(self):
        stmt = parse("SELECT a FROM t WHERE NOT (a IN (1, 2) OR b IS NOT "
                     "NULL) AND c != 3")
        assert isinstance(stmt.where, nodes.BinaryOp)

    def test_update(self):
        stmt = parse("UPDATE t SET a = 1, b = 'x' WHERE id = 3")
        assert [c for c, _ in stmt.assignments] == ["a", "b"]

    def test_delete(self):
        stmt = parse("DELETE FROM t WHERE a = 1")
        assert isinstance(stmt, nodes.Delete)

    def test_keyword_usable_as_identifier(self):
        stmt = parse("SELECT key FROM t WHERE key = 'x'")
        assert stmt.items[0].expr.name == "key"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLError):
            parse("SELECT a FROM t garbage %")
        with pytest.raises(SQLError):
            parse("SELECT a FROM t; SELECT b FROM t")

    def test_unsupported_statement(self):
        with pytest.raises(SQLError):
            parse("GRANT ALL ON t TO public")

    def test_to_sql_roundtrip(self):
        text = "SELECT a, b FROM t WHERE (a = 1 AND b LIKE 'x%') LIMIT 3"
        stmt = parse(text)
        again = parse(str(stmt.to_sql()))
        assert str(again.to_sql()) == str(stmt.to_sql())

    def test_to_sql_preserves_literal_policies(self):
        query = concat("SELECT a FROM t WHERE name = '", taint_str("eve", U),
                       "'")
        rendered = parse(query).to_sql()
        assert rendered.policies() == PolicySet.of(U)


class TestMalformedStatements:
    """Every malformed statement raises ``SQLError``, never a raw Python
    error."""

    @pytest.mark.parametrize("char", ["\u00b2", "\u00bd"])
    def test_non_decimal_digit_is_an_unexpected_character(self, char):
        # '²'.isdigit() and '½'.isnumeric() hold, but int() takes neither.
        with pytest.raises(SQLError) as raised:
            parse(f"SELECT a FROM t WHERE a = {char}")
        assert str(raised.value) == f"unexpected character {char!r} at position 26"
        with pytest.raises(SQLError) as raised:
            tokenize(f"SELECT 1{char}")
        assert str(raised.value) == f"unexpected character {char!r} at position 8"

    def test_decimal_digits_of_any_script_are_numbers(self):
        tokens = tokenize("\u0661\u0662 \u0661.\u0665 a\u00b2")
        assert [(t.type, t.value) for t in tokens[:3]] == [
            (NUMBER, 12), (NUMBER, 1.5), (IDENT, "a\u00b2")]

    def test_param_scan_and_structure_guard_report_sql_error(self):
        sql = "SELECT a FROM t WHERE a = :p OR a = \u00b2"
        assert _query_param_names(sql) == frozenset()
        guard = SQLGuardFilter("structure")
        with pytest.raises(SQLError) as raised:
            guard.filter_func(lambda query: None, (TaintedStr(sql),), {})
        assert str(raised.value) == "unexpected character '\u00b2' at position 36"

    @pytest.mark.parametrize("nest", [
        lambda n: "(" * n + "a" + ")" * n,
        lambda n: "NOT " * n + "a",
        lambda n: "- " * n + "1",
        lambda n: "lower(" * n + "a" + ")" * n,
        lambda n: "a IN (" * n + "1" + ")" * n,
        lambda n: "NOT (" * (n // 2) + "a" + ")" * (n // 2),
    ], ids=["parentheses", "not", "signs", "functions", "in-lists", "mixed"])
    def test_nesting_is_bounded_at_100_levels(self, nest):
        parse(f"SELECT a FROM t WHERE {nest(100)}")
        for depth in (101, 5000):
            with pytest.raises(SQLError) as raised:
                parse(f"SELECT a FROM t WHERE {nest(depth + depth % 2)}")
            assert str(raised.value) == "expression nested too deeply"

    @pytest.mark.parametrize("sql, message", [
        ("SELECT a FROM t LIMIT 2.5", "LIMIT must be an integer, found 2.5"),
        ("SELECT a FROM t LIMIT 2 OFFSET 1.5",
         "OFFSET must be an integer, found 1.5"),
        ("SELECT a FROM t LIMIT .5", "LIMIT must be an integer, found 0.5"),
    ])
    def test_fractional_limit_and_offset_are_rejected(self, sql, message):
        with pytest.raises(SQLError) as raised:
            parse(sql)
        assert str(raised.value) == message

    def test_backquoted_keyword_is_an_identifier(self):
        stmt = parse("SELECT a `from` FROM `select` WHERE `where` = 1")
        assert stmt.items[0].alias == "from"
        assert stmt.table == "select"
        assert stmt.where.left.name == "where"

    def test_nested_explain_is_rejected_without_recursion(self):
        with pytest.raises(SQLError) as raised:
            parse("EXPLAIN " * 5000 + "SELECT a FROM t")
        assert str(raised.value) == "EXPLAIN cannot be nested"


class TestEngine:
    @pytest.fixture
    def engine(self):
        engine = Engine()
        engine.run("CREATE TABLE users (id INTEGER, name TEXT, age INTEGER)")
        engine.run("INSERT INTO users (id, name, age) VALUES "
                       "(1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35)")
        return engine

    def test_select_all(self, engine):
        result = engine.run("SELECT * FROM users")
        assert len(result) == 3
        assert result.columns == ["id", "name", "age"]

    def test_select_where(self, engine):
        result = engine.run("SELECT name FROM users WHERE age > 26")
        assert sorted(str(r["name"]) for r in result) == ["alice", "carol"]

    def test_select_order_and_limit(self, engine):
        result = engine.run(
            "SELECT name FROM users ORDER BY age DESC LIMIT 2")
        assert [str(r["name"]) for r in result] == ["carol", "alice"]

    def test_select_offset(self, engine):
        result = engine.run(
            "SELECT name FROM users ORDER BY age ASC LIMIT 2 OFFSET 1")
        assert [str(r["name"]) for r in result] == ["alice", "carol"]

    def test_like(self, engine):
        result = engine.run("SELECT name FROM users WHERE name LIKE 'a%'")
        assert [str(r["name"]) for r in result] == ["alice"]

    def test_in_and_not_in(self, engine):
        assert len(engine.run(
            "SELECT id FROM users WHERE id IN (1, 3)")) == 2
        assert len(engine.run(
            "SELECT id FROM users WHERE id NOT IN (1, 3)")) == 1

    def test_is_null(self, engine):
        engine.run("INSERT INTO users (id, name) VALUES (4, 'dave')")
        assert len(engine.run(
            "SELECT id FROM users WHERE age IS NULL")) == 1
        assert len(engine.run(
            "SELECT id FROM users WHERE age IS NOT NULL")) == 3

    def test_arithmetic_is_rejected_whatever_the_operands(self, engine):
        # Arithmetic is not in the dialect; a NULL operand must not turn
        # the statement into one that returns False instead of failing.
        engine.run("INSERT INTO users (id, name) VALUES (4, 'dave')")
        for op in ("+", "-"):
            for where in ("age IS NULL", "age IS NOT NULL"):
                with pytest.raises(SQLError, match="unsupported operator"):
                    engine.run(f"SELECT age {op} id FROM users WHERE {where}")

    def test_aggregates(self, engine):
        result = engine.run(
            "SELECT COUNT(*) AS n, MIN(age) AS lo, MAX(age) AS hi, "
            "AVG(age) AS mean, SUM(age) AS total FROM users")
        row = result.rows[0]
        assert (row["n"], row["lo"], row["hi"]) == (3, 25, 35)
        assert row["total"] == 90 and row["mean"] == 30

    def test_scalar_functions(self, engine):
        row = engine.run(
            "SELECT UPPER(name) AS u, LENGTH(name) AS l FROM users "
            "WHERE id = 1").rows[0]
        assert row["u"] == "ALICE" and row["l"] == 5

    def test_distinct(self, engine):
        engine.run("INSERT INTO users (id, name, age) VALUES (5, 'alice', 30)")
        assert len(engine.run("SELECT name FROM users")) == 4
        assert len(engine.run("SELECT DISTINCT name FROM users")) == 3

    def test_distinct_applies_before_limit_and_offset(self):
        engine = Engine()
        engine.run("CREATE TABLE t (g INTEGER)")
        engine.run("INSERT INTO t (g) VALUES (0), (0), (1), (1), (2), (2)")

        def column(sql):
            return [row["g"] for row in engine.run(sql)]

        assert column("SELECT DISTINCT g FROM t LIMIT 2") == [0, 1]
        assert column("SELECT DISTINCT g FROM t ORDER BY g DESC "
                      "LIMIT 2 OFFSET 1") == [1, 0]
        assert engine.explain_lines("SELECT DISTINCT g FROM t LIMIT 2") == [
            "Project [g]", "  Slice LIMIT 2", "    Distinct [g]",
            "      SeqScan t"]

    def test_min_max_over_mixed_values_use_the_sort_order(self):
        engine = Engine()
        engine.run("CREATE TABLE t (v TEXT)")
        engine.run("INSERT INTO t (v) VALUES ('a'), (1), (NULL), (2.5)")
        row = engine.run("SELECT MIN(v) AS lo, MAX(v) AS hi FROM t").rows[0]
        # Numbers sort before strings, as in ORDER BY; NULLs are skipped.
        assert (row["lo"], row["hi"]) == (1, "a")

    @pytest.mark.parametrize("aggregate", ["SUM", "AVG"])
    def test_sum_and_avg_reject_text(self, engine, aggregate):
        with pytest.raises(SQLError):
            engine.run(f"SELECT {aggregate}(name) FROM users")
        engine.run("CREATE TABLE m (v TEXT)")
        engine.run("INSERT INTO m (v) VALUES (1), ('2')")
        with pytest.raises(SQLError):
            engine.run(f"SELECT {aggregate}(v) FROM m")

    def test_update(self, engine):
        count = engine.run(
            "UPDATE users SET age = 31 WHERE name = 'alice'").rowcount
        assert count == 1
        assert engine.run(
            "SELECT age FROM users WHERE name = 'alice'").scalar() == 31

    def test_delete(self, engine):
        assert engine.run("DELETE FROM users WHERE age < 30").rowcount == 1
        assert len(engine.run("SELECT * FROM users")) == 2

    def test_drop_and_missing_table(self, engine):
        engine.run("DROP TABLE users")
        with pytest.raises(SQLError):
            engine.run("SELECT * FROM users")
        engine.run("DROP TABLE IF EXISTS users")

    def test_create_duplicate_table(self, engine):
        with pytest.raises(SQLError):
            engine.run("CREATE TABLE users (x TEXT)")
        engine.run("CREATE TABLE IF NOT EXISTS users (x TEXT)")

    def test_insert_unknown_column(self, engine):
        with pytest.raises(SQLError):
            engine.run("INSERT INTO users (nope) VALUES (1)")

    def test_select_unknown_column(self, engine):
        with pytest.raises(SQLError):
            engine.run("SELECT nope FROM users WHERE nope = 1")

    def test_select_without_from(self):
        result = Engine().run("SELECT 1 AS one, 'x' AS label")
        assert result.rows[0]["one"] == 1

    def test_classic_injection_widens_result(self, engine):
        # The substrate behaves like a real database: a ' OR '1'='1 payload
        # really does return every row, which is what the guard must stop.
        result = engine.run(
            "SELECT name FROM users WHERE name = 'x' OR '1'='1'")
        assert len(result) == 3

    def test_result_row_positional_access(self, engine):
        row = engine.run("SELECT id, name FROM users WHERE id = 1").rows[0]
        assert row[0] == 1 and str(row[1]) == "alice"
        assert row.values_list() == [1, "alice"]

    def test_null_comparisons_are_false(self, engine):
        engine.run("INSERT INTO users (id, name) VALUES (9, 'nil')")
        assert len(engine.run(
            "SELECT id FROM users WHERE age = 30 AND name = 'nil'")) == 0
