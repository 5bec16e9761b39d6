"""Integration tests for the SQL channel's one policy rule.

Expressions evaluate over cells with their stored policies attached, and a
write stores whatever policies the evaluated value carries
(``sqlchan.PolicyCells``).  Three groups:

* **HotCRP probes**: a password that reaches an outsider's page through a
  computed expression (``upper``, ``MAX``, an UPDATE copy) is stopped at
  the HTTP boundary, exactly like the bare column.
* **Eager differential**: every statement of a corpus runs through the
  channel and through the reference below, which attaches every data cell
  of every row WHERE keeps and evaluates with the executor's own
  ``evaluate`` / ``evaluate_aggregate``.  Result cells must agree in text
  and range map, and after a write every stored value and policy blob must
  agree.  Hypothesis supplies the cells: partly tainted strings, tainted
  ints and NULLs.
* **What results carry**: the policies of each kind of SQL result, as
  docs/API.md tabulates them.
* **Lazy attach**: only the cells an expression reads, in the rows the
  statement keeps, are decoded.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.hotcrp import HotCRP
from repro.channels.sqlchan import (Database, apply_cell_policies,
                                    is_policy_column, policy_column,
                                    serialize_cell_policies)
from repro.core.exceptions import DisclosureViolation, SerializationError
from repro.environment import Environment
from repro.policies import PasswordPolicy, ReadAccessPolicy, UntrustedData
from repro.sql import nodes
from repro.sql.engine import Engine
from repro.sql.executor import (evaluate, evaluate_aggregate, sort_key,
                                stored_value)
from repro.sql.parser import parse
from repro.sql.planner import AGGREGATES, bind_parameters
from repro.tracking.propagation import concat, policies_of, to_tainted_str
from repro.tracking.tainted_number import TaintedInt, taint_int
from repro.tracking.tainted_str import taint_str
from repro.web.sanitize import sql_quote

# -- HotCRP probes ---------------------------------------------------------------

VICTIM = "WHERE email = 'victim@example.org'"


@pytest.fixture
def site():
    site = HotCRP(Environment(), use_resin=True)
    site.register_user("victim@example.org", "victim-password")
    site.register_user("adversary@example.org", "adversary-password")
    return site


def _write_to_outsider(site, value):
    response = site.env.http_channel(user="adversary@example.org")
    try:
        response.write(value)
    finally:
        assert "victim-password" not in response.body().lower()


class TestHotCRPProbes:
    def test_bare_column_is_blocked(self, site):
        value = site.env.db.query(f"SELECT password FROM users {VICTIM}").scalar()
        with pytest.raises(DisclosureViolation):
            _write_to_outsider(site, value)

    def test_upper_keeps_the_password_policy(self, site):
        value = site.env.db.query(
            f"SELECT upper(password) AS p FROM users {VICTIM}").scalar()
        assert value == "VICTIM-PASSWORD"
        with pytest.raises(DisclosureViolation):
            _write_to_outsider(site, value)

    def test_max_returns_the_chosen_password_with_its_policy(self, site):
        value = site.env.db.query(
            f"SELECT MAX(password) AS p FROM users {VICTIM}").scalar()
        assert value == "victim-password"
        with pytest.raises(DisclosureViolation):
            _write_to_outsider(site, value)

    def test_update_stores_the_computed_value_with_its_policy(self, site):
        db = site.env.db
        db.query(f"UPDATE users SET email = upper(password) {VICTIM}")
        value = db.query(
            "SELECT email FROM users WHERE email = 'VICTIM-PASSWORD'").scalar()
        assert value == "VICTIM-PASSWORD"
        assert value.has_policy_type(PasswordPolicy)
        with pytest.raises(DisclosureViolation):
            _write_to_outsider(site, value)


# -- the eager reference -----------------------------------------------------------

POLICIES = [
    UntrustedData("cells"),
    PasswordPolicy("victim@example.org"),
    ReadAccessPolicy(["alice"], label="cells"),
]


@st.composite
def partly_tainted(draw):
    text = draw(st.text(alphabet="abcXY z'", max_size=6))
    if not text:
        return text
    start = draw(st.integers(0, len(text) - 1))
    stop = draw(st.integers(start + 1, len(text)))
    policy = draw(st.sampled_from(POLICIES))
    return text[:start] + taint_str(text[start:stop], policy) + text[stop:]


tainted_ints = st.builds(
    TaintedInt, st.integers(-20, 20),
    st.lists(st.sampled_from(POLICIES), max_size=2))
text_cells = st.one_of(st.none(), partly_tainted(), tainted_ints)
number_cells = st.one_of(st.none(), st.integers(-20, 20), tainted_ints)
rows_strategy = st.lists(st.tuples(text_cells, text_cells, number_cells),
                         min_size=1, max_size=5)

SCHEMA = "CREATE TABLE t (a TEXT, b TEXT, n INTEGER)"
TAINTED_X = taint_str("x", UntrustedData("literal"))

SELECTS = [
    "SELECT a AS first, b AS second FROM t",
    "SELECT * FROM t",
    "SELECT a, n, * FROM t WHERE n > 0",
    "SELECT lower(a) AS l, upper(b) AS u, length(a) AS len FROM t",
    "SELECT length(n) AS digits FROM t",
    "SELECT count(*) AS c, count(a) AS ca, min(a) AS lo, max(b) AS hi "
    "FROM t",
    "SELECT min(n) AS lo, max(n) AS hi, sum(n) AS s, avg(n) AS m FROM t",
    "SELECT count(*) AS c, a FROM t WHERE n IS NOT NULL",
    "SELECT DISTINCT a FROM t",
    "SELECT DISTINCT upper(b) AS u FROM t ORDER BY b LIMIT 2 OFFSET 1",
    "SELECT a, n FROM t ORDER BY n DESC, a LIMIT 2",
    "SELECT upper(a) AS u FROM t WHERE b IS NOT NULL ORDER BY a LIMIT 3",
    "SELECT a, upper(a) AS u, __policy_a FROM t",
]

UPDATES = [
    "UPDATE t SET a = upper(b)",
    concat("UPDATE t SET a = b, b = '", TAINTED_X, "'"),
    concat("UPDATE t SET b = '", TAINTED_X, "', a = b"),
    "UPDATE t SET n = length(a), b = lower(a) WHERE n IS NOT NULL",
]

INSERTS = [
    concat("INSERT INTO t (a, b, n) VALUES (lower('",
           sql_quote(taint_str("MiXeD", UntrustedData("literal"))),
           "'), :b, :n)"),
    "INSERT INTO t (a, b, n) VALUES (:a, upper(:b), length(:a)), "
    "(:b, :a, :n)",
]


def build(rows) -> Database:
    db = Database(Engine())
    db.execute_unchecked(SCHEMA)
    for a, b, n in rows:
        db.query("INSERT INTO t (a, b, n) VALUES (:a, :b, :n)",
                 {"a": a, "b": b, "n": n})
    return db


def data_columns(table):
    return [c for c in table.column_names if not is_policy_column(c)]


def attach_all(row, table):
    """``row`` with every data cell's stored policies attached."""
    viewed = dict(row)
    for column in data_columns(table):
        viewed[column] = apply_cell_policies(
            row[column], row.get(policy_column(column)))
    return viewed


def matches(stmt, row, table) -> bool:
    return stmt.where is None or bool(evaluate(stmt.where, row, table))


def reference_select(table, stmt):
    matching = [row for row in table.rows if matches(stmt, row, table)]
    if any(isinstance(item.expr, nodes.FuncCall)
           and item.expr.name in AGGREGATES for item in stmt.items):
        viewed = [attach_all(row, table) for row in matching]
        return [[evaluate_aggregate(item.expr, viewed, table)
                 for item in stmt.items]]
    for ordering in reversed(stmt.order_by):
        matching = sorted(
            matching,
            key=lambda row: sort_key(evaluate(ordering.expr, row, table)),
            reverse=ordering.descending)
    result, seen = [], set()
    for row in matching:
        viewed = attach_all(row, table)
        values = []
        for item in stmt.items:
            if isinstance(item.expr, nodes.Star):
                values.extend(viewed[c] for c in data_columns(table))
            else:
                values.append(evaluate(item.expr, viewed, table))
        if stmt.distinct:
            key = tuple(str(v) for v in values)
            if key in seen:
                continue
            seen.add(key)
        result.append(values)
    if stmt.offset:
        result = result[stmt.offset:]
    if stmt.limit is not None:
        result = result[:stmt.limit]
    return result


def reference_store(table, row, column, value):
    row[column] = stored_value(value)
    row[policy_column(column)] = serialize_cell_policies(value)


def reference_update(table, stmt):
    for row in table.rows:
        if not matches(stmt, row, table):
            continue
        viewed = attach_all(row, table)
        for column, expr in stmt.assignments:
            reference_store(table, row, column, evaluate(expr, viewed, table))
            # Later assignments read what this one stored, re-attached.
            viewed[column] = apply_cell_policies(
                row[column], row[policy_column(column)])


def reference_insert(table, stmt):
    for exprs in stmt.rows:
        row = dict.fromkeys(table.column_names)
        for column, expr in zip(stmt.columns, exprs):
            reference_store(table, row, column, evaluate(expr, None, table))
        table.rows.append(row)


def image(value):
    """A cell's text and range map (a number's policies spread over its
    digits), and whether it is NULL."""
    return value is None, str(value), to_tainted_str(value).rangemap


def stored_state(db):
    table = db.engine.tables["t"]
    return [[row[c] for c in table.column_names] for row in table.rows]


DIFFERENTIAL = settings(max_examples=30, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])


class TestEagerDifferential:
    @pytest.mark.parametrize("sql", SELECTS)
    @DIFFERENTIAL
    @given(rows=rows_strategy)
    def test_select_matches_eager_reference(self, sql, rows):
        db = build(rows)
        result = db.query(sql)
        expected = reference_select(db.engine.tables["t"], parse(sql))
        assert [[image(row[c]) for c in result.columns]
                for row in result.rows] == [[image(v) for v in values]
                                            for values in expected]

    @pytest.mark.parametrize("sql", UPDATES, ids=str)
    @DIFFERENTIAL
    @given(rows=rows_strategy)
    def test_update_stores_what_the_reference_stores(self, sql, rows):
        planned, reference = build(rows), build(rows)
        planned.query(sql)
        reference_update(reference.engine.tables["t"], parse(sql))
        assert stored_state(planned) == stored_state(reference)

    @pytest.mark.parametrize("sql", INSERTS, ids=str)
    @DIFFERENTIAL
    @given(rows=rows_strategy, a=text_cells, b=text_cells, n=number_cells)
    def test_insert_stores_what_the_reference_stores(self, sql, rows, a, b,
                                                     n):
        params = {"a": a, "b": b, "n": n}
        planned, reference = build(rows), build(rows)
        planned.query(sql, params)
        reference_insert(reference.engine.tables["t"],
                         bind_parameters(parse(sql), params))
        assert stored_state(planned) == stored_state(reference)


# -- what results carry ---------------------------------------------------------------

ONE, TWO = UntrustedData("one"), UntrustedData("two")


class TestWhatResultsCarry:
    @pytest.fixture
    def db(self):
        db = Database(Engine())
        db.execute_unchecked("CREATE TABLE t (s TEXT, n INTEGER)")
        for s, n in ((taint_str("ab", ONE), taint_int(2, [ONE])),
                     ("cd", taint_int(3, [TWO]))):
            db.query("INSERT INTO t (s, n) VALUES (:s, :n)", {"s": s, "n": n})
        return db

    @pytest.mark.parametrize("sql, text, policies", [
        ("SELECT s AS alias FROM t", "ab", {ONE}),
        ("SELECT upper(s) FROM t", "AB", {ONE}),
        ("SELECT lower(n) FROM t", "2", {ONE}),
        ("SELECT length(s) FROM t", "2", {ONE}),
        ("SELECT min(s) FROM t", "ab", {ONE}),
        ("SELECT max(s) FROM t", "cd", set()),
        ("SELECT sum(n) FROM t", "5", {ONE, TWO}),
        ("SELECT avg(n) FROM t", "2.5", {ONE, TWO}),
        ("SELECT count(s) FROM t", "2", set()),
    ])
    def test_result_policies(self, db, sql, text, policies):
        value = db.query(sql).scalar()
        assert str(value) == text
        assert set(policies_of(value)) == policies


# -- lazy attach ---------------------------------------------------------------------

UNDECODABLE = ('{"kind": "policyset", "policies": '
               '[{"class": "tests.never_defined.MissingPolicy", '
               '"fields": {}}]}')


class TestLazyAttach:
    @pytest.fixture
    def db(self):
        db = Database(Engine())
        db.execute_unchecked("CREATE TABLE t (name TEXT, secret TEXT)")
        db.query("INSERT INTO t (name, secret) VALUES ('a', 'kept')")
        db.query("INSERT INTO t (name, secret) VALUES ('b', 'broken')")
        db.query(f"UPDATE t SET {policy_column('secret')} = '{UNDECODABLE}' "
                 "WHERE name = 'b'")
        return db

    def test_only_the_columns_read_are_decoded(self, db):
        assert [r["name"] for r in db.query("SELECT name FROM t")] == ["a",
                                                                        "b"]
        assert db.query("SELECT count(*) AS c FROM t").scalar() == 2
        db.query("UPDATE t SET name = upper(name)")
        for sql in ("SELECT secret FROM t", "SELECT * FROM t",
                    "SELECT max(secret) AS m FROM t",
                    "UPDATE t SET name = secret"):
            with pytest.raises(SerializationError):
                db.query(sql)

    def test_only_the_rows_kept_are_decoded(self, db):
        # WHERE, ORDER BY and LIMIT choose rows over the stored cells; only
        # the survivors are attached.
        for sql in ("SELECT secret FROM t WHERE name = 'a'",
                    "SELECT secret FROM t LIMIT 1",
                    "SELECT secret FROM t ORDER BY name DESC LIMIT 1 "
                    "OFFSET 1"):
            assert db.query(sql).scalar() == "kept"
