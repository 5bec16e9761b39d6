"""Differential test of the SQL parser against its reference semantics.

``ReferenceParser`` below is the recursive-descent parser as it was before
grammar decisions became lookups in a list of token kinds: it asks
``check``/``accept``/``expect`` questions of ``Token.matches`` and runs over
the per-character ``tokenize_reference`` of ``test_sql_text_builders``.  Its
body is kept as it was; only its token source changed.  On statements that
a hypothesis grammar draws from every production of the dialect (tainted
string literals included), and on token soups that drive the error paths,
``parse`` must build the same node classes with the same fields, regenerate
the same ``to_sql()`` text with the same range map, and raise ``SQLError``
with the same message.

Each statement and soup is parsed twice: as drawn, and relabeled with the
same skeleton but other literals carrying other policies, which the
parser's template memo answers without parsing when the first statement
left a template.  Both parses must match the reference.

The reference keeps defects the parser no longer has, so none is drawn
here: it truncates a fractional ``LIMIT``/``OFFSET``, and it recurses once
per nesting level and per stacked ``EXPLAIN`` without bound.
``TestMalformedStatements`` in ``tests/unit/test_sql.py`` pins the fixes.
"""

from typing import List, Optional, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.exceptions import SQLError
from repro.policies import UntrustedData
from repro.sql import nodes, parser
from repro.sql.parser import parse
from repro.sql.tokenizer import (
    EOF,
    IDENT,
    KEYWORD,
    NUMBER,
    OP,
    PARAM,
    PUNCT,
    SLOTS,
    STRING,
    skeleton,
)
from repro.tracking.tainted_str import TaintedStr, taint_str

from test_sql_text_builders import tokenize_reference

_TYPE_KEYWORDS = {"integer", "int", "text", "real", "float", "varchar", "char"}
_AGGREGATES = {"count", "min", "max", "sum", "avg"}
_FUNCTIONS = _AGGREGATES | {"lower", "upper", "length"}


class Token:
    """A reference token: type and cooked value, asked by ``matches``."""

    def __init__(self, type: str, value):
        self.type = type
        self.value = value

    def matches(self, type: str, value=None) -> bool:
        if self.type != type:
            return False
        return value is None or self.value == value


class ReferenceParser:
    """Parses one SQL statement (the reference semantics)."""

    def __init__(self, sql):
        self.sql = sql
        self.tokens: List[Token] = [
            Token(type, value) for type, value, _, _, _ in tokenize_reference(sql)
        ]
        self.position = 0

    # -- token helpers ---------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.current
        if token.type != EOF:
            self.position += 1
        return token

    def check(self, type: str, value=None) -> bool:
        return self.current.matches(type, value)

    def accept(self, type: str, value=None) -> Optional[Token]:
        if self.check(type, value):
            return self.advance()
        return None

    def expect(self, type: str, value=None) -> Token:
        if not self.check(type, value):
            expected = value if value is not None else type
            raise SQLError(
                f"expected {expected!r}, found {self.current.value!r} in "
                f"query: {str(self.sql)[:200]}")
        return self.advance()

    def expect_ident(self) -> str:
        # Unreserved keywords may double as identifiers (e.g. a column named
        # "key"); accept either token type.
        if self.check(IDENT) or self.check(KEYWORD):
            return str(self.advance().value)
        raise SQLError(f"expected identifier, found {self.current.value!r}")

    # -- entry point -------------------------------------------------------------

    def parse(self) -> nodes.Statement:
        statement = self._statement()
        self.accept(PUNCT, ";")
        if not self.check(EOF):
            raise SQLError(
                f"unexpected trailing input near {self.current.value!r}")
        return statement

    def _statement(self) -> nodes.Statement:
        if self.accept(KEYWORD, "explain"):
            statement = self._statement()
            if isinstance(statement, nodes.Explain):
                raise SQLError("EXPLAIN cannot be nested")
            return nodes.Explain(statement)
        if self.check(KEYWORD, "create"):
            return self._create()
        if self.check(KEYWORD, "drop"):
            return self._drop()
        if self.check(KEYWORD, "insert"):
            return self._insert()
        if self.check(KEYWORD, "select"):
            return self._select()
        if self.check(KEYWORD, "update"):
            return self._update()
        if self.check(KEYWORD, "delete"):
            return self._delete()
        raise SQLError(f"unsupported statement: {str(self.sql)[:200]}")

    # -- statements ------------------------------------------------------------------

    def _create(self) -> nodes.Statement:
        self.expect(KEYWORD, "create")
        if self.accept(KEYWORD, "index"):
            return self._create_index()
        self.expect(KEYWORD, "table")
        if_not_exists = False
        if self.accept(KEYWORD, "if"):
            self.expect(KEYWORD, "not")
            self.expect(KEYWORD, "exists")
            if_not_exists = True
        table = self.expect_ident()
        self.expect(PUNCT, "(")
        columns = [self._column_def()]
        while self.accept(PUNCT, ","):
            columns.append(self._column_def())
        self.expect(PUNCT, ")")
        return nodes.CreateTable(table, columns, if_not_exists)

    def _column_def(self) -> nodes.ColumnDef:
        name = self.expect_ident()
        column_type = "TEXT"
        if self.current.type == KEYWORD and self.current.value in _TYPE_KEYWORDS:
            column_type = str(self.advance().value).upper()
            if self.accept(PUNCT, "("):
                self.expect(NUMBER)
                self.expect(PUNCT, ")")
        constraints: List[str] = []
        while True:
            if self.accept(KEYWORD, "primary"):
                self.expect(KEYWORD, "key")
                constraints.append("PRIMARY KEY")
            elif self.accept(KEYWORD, "not"):
                self.expect(KEYWORD, "null")
                constraints.append("NOT NULL")
            elif self.accept(KEYWORD, "unique"):
                constraints.append("UNIQUE")
            elif self.accept(KEYWORD, "autoincrement"):
                constraints.append("AUTOINCREMENT")
            elif self.accept(KEYWORD, "default"):
                literal = self._primary()
                constraints.append(f"DEFAULT {literal.to_sql()}")
            else:
                break
        return nodes.ColumnDef(name, column_type, constraints)

    def _create_index(self) -> nodes.CreateIndex:
        if_not_exists = False
        if self.accept(KEYWORD, "if"):
            self.expect(KEYWORD, "not")
            self.expect(KEYWORD, "exists")
            if_not_exists = True
        name = self.expect_ident()
        self.expect(KEYWORD, "on")
        table = self.expect_ident()
        self.expect(PUNCT, "(")
        column = self.expect_ident()
        self.expect(PUNCT, ")")
        kind = "sorted"
        if self.accept(KEYWORD, "using"):
            kind = self.expect_ident().lower()
        return nodes.CreateIndex(name, table, column, kind, if_not_exists)

    def _drop(self) -> nodes.Statement:
        self.expect(KEYWORD, "drop")
        if self.accept(KEYWORD, "index"):
            if_exists = False
            if self.accept(KEYWORD, "if"):
                self.expect(KEYWORD, "exists")
                if_exists = True
            return nodes.DropIndex(self.expect_ident(), if_exists)
        self.expect(KEYWORD, "table")
        if_exists = False
        if self.accept(KEYWORD, "if"):
            self.expect(KEYWORD, "exists")
            if_exists = True
        return nodes.DropTable(self.expect_ident(), if_exists)

    def _insert(self) -> nodes.Insert:
        self.expect(KEYWORD, "insert")
        self.expect(KEYWORD, "into")
        table = self.expect_ident()
        self.expect(PUNCT, "(")
        columns = [self.expect_ident()]
        while self.accept(PUNCT, ","):
            columns.append(self.expect_ident())
        self.expect(PUNCT, ")")
        self.expect(KEYWORD, "values")
        rows = [self._value_tuple(len(columns))]
        while self.accept(PUNCT, ","):
            rows.append(self._value_tuple(len(columns)))
        return nodes.Insert(table, columns, rows)

    def _value_tuple(self, expected_arity: int) -> List[nodes.Expr]:
        self.expect(PUNCT, "(")
        values = [self._expression()]
        while self.accept(PUNCT, ","):
            values.append(self._expression())
        self.expect(PUNCT, ")")
        if len(values) != expected_arity:
            raise SQLError(
                f"INSERT arity mismatch: {len(values)} values for "
                f"{expected_arity} columns")
        return values

    def _select(self) -> nodes.Select:
        self.expect(KEYWORD, "select")
        distinct = bool(self.accept(KEYWORD, "distinct"))
        items = [self._select_item()]
        while self.accept(PUNCT, ","):
            items.append(self._select_item())
        table = None
        if self.accept(KEYWORD, "from"):
            table = self.expect_ident()
        where = None
        if self.accept(KEYWORD, "where"):
            where = self._expression()
        order_by: List[nodes.OrderBy] = []
        if self.accept(KEYWORD, "order"):
            self.expect(KEYWORD, "by")
            order_by.append(self._ordering())
            while self.accept(PUNCT, ","):
                order_by.append(self._ordering())
        limit = offset = None
        if self.accept(KEYWORD, "limit"):
            limit = int(self.expect(NUMBER).value)
            if self.accept(KEYWORD, "offset"):
                offset = int(self.expect(NUMBER).value)
        return nodes.Select(items, table, where, order_by, limit, offset,
                            distinct)

    def _select_item(self) -> nodes.SelectItem:
        if self.accept(PUNCT, "*"):
            return nodes.SelectItem(nodes.Star())
        expr = self._expression()
        alias = None
        if self.accept(KEYWORD, "as"):
            alias = self.expect_ident()
        elif self.check(IDENT):
            alias = str(self.advance().value)
        return nodes.SelectItem(expr, alias)

    def _ordering(self) -> nodes.OrderBy:
        expr = self._expression()
        descending = False
        if self.accept(KEYWORD, "desc"):
            descending = True
        else:
            self.accept(KEYWORD, "asc")
        return nodes.OrderBy(expr, descending)

    def _update(self) -> nodes.Update:
        self.expect(KEYWORD, "update")
        table = self.expect_ident()
        self.expect(KEYWORD, "set")
        assignments: List[Tuple[str, nodes.Expr]] = [self._assignment()]
        while self.accept(PUNCT, ","):
            assignments.append(self._assignment())
        where = None
        if self.accept(KEYWORD, "where"):
            where = self._expression()
        return nodes.Update(table, assignments, where)

    def _assignment(self) -> Tuple[str, nodes.Expr]:
        column = self.expect_ident()
        self.expect(OP, "=")
        return column, self._expression()

    def _delete(self) -> nodes.Delete:
        self.expect(KEYWORD, "delete")
        self.expect(KEYWORD, "from")
        table = self.expect_ident()
        where = None
        if self.accept(KEYWORD, "where"):
            where = self._expression()
        return nodes.Delete(table, where)

    # -- expressions -----------------------------------------------------------------

    def _expression(self) -> nodes.Expr:
        return self._or_expr()

    def _or_expr(self) -> nodes.Expr:
        left = self._and_expr()
        while self.accept(KEYWORD, "or"):
            left = nodes.BinaryOp("or", left, self._and_expr())
        return left

    def _and_expr(self) -> nodes.Expr:
        left = self._not_expr()
        while self.accept(KEYWORD, "and"):
            left = nodes.BinaryOp("and", left, self._not_expr())
        return left

    def _not_expr(self) -> nodes.Expr:
        if self.accept(KEYWORD, "not"):
            return nodes.UnaryOp("not", self._not_expr())
        return self._comparison()

    def _comparison(self) -> nodes.Expr:
        left = self._primary()
        if self.current.type == OP:
            op = str(self.advance().value)
            return nodes.BinaryOp(op, left, self._primary())
        if self.accept(KEYWORD, "like"):
            return nodes.BinaryOp("like", left, self._primary())
        if self.check(KEYWORD, "not"):
            saved = self.position
            self.advance()
            if self.accept(KEYWORD, "like"):
                return nodes.UnaryOp(
                    "not", nodes.BinaryOp("like", left, self._primary()))
            if self.accept(KEYWORD, "in"):
                return self._in_list(left, negated=True)
            self.position = saved
            return left
        if self.accept(KEYWORD, "in"):
            return self._in_list(left, negated=False)
        if self.accept(KEYWORD, "is"):
            negated = bool(self.accept(KEYWORD, "not"))
            self.expect(KEYWORD, "null")
            return nodes.IsNull(left, negated)
        return left

    def _in_list(self, operand: nodes.Expr, negated: bool) -> nodes.Expr:
        self.expect(PUNCT, "(")
        items = [self._expression()]
        while self.accept(PUNCT, ","):
            items.append(self._expression())
        self.expect(PUNCT, ")")
        return nodes.InList(operand, items, negated)

    def _primary(self) -> nodes.Expr:
        if self.accept(PUNCT, "("):
            expr = self._expression()
            self.expect(PUNCT, ")")
            return expr
        if self.check(OP, "-") or self.check(OP, "+"):
            sign = str(self.advance().value)
            operand = self._primary()
            if sign == "+":
                return operand
            if isinstance(operand, nodes.Literal) \
                    and isinstance(operand.value, (int, float)):
                return nodes.Literal(-operand.value)
            raise SQLError("unary minus is only supported on numeric literals")
        if self.check(STRING):
            return nodes.Literal(self.advance().value)
        if self.check(NUMBER):
            return nodes.Literal(self.advance().value)
        if self.accept(KEYWORD, "null"):
            return nodes.Literal(None)
        if self.check(PARAM):
            return nodes.Param(str(self.advance().value))
        if (self.current.type in (IDENT, KEYWORD)
                and str(self.current.value).lower() in _FUNCTIONS
                and self.tokens[self.position + 1].matches(PUNCT, "(")):
            name = str(self.advance().value)
            self.expect(PUNCT, "(")
            if self.accept(PUNCT, "*"):
                self.expect(PUNCT, ")")
                return nodes.FuncCall(name, [], star=True)
            args = [self._expression()]
            while self.accept(PUNCT, ","):
                args.append(self._expression())
            self.expect(PUNCT, ")")
            return nodes.FuncCall(name, args)
        if self.check(IDENT) or self.check(KEYWORD):
            name = self.expect_ident()
            if self.accept(PUNCT, "."):
                if self.accept(PUNCT, "*"):
                    return nodes.Star(name)
                return nodes.ColumnRef(self.expect_ident(), table=name)
            return nodes.ColumnRef(name)
        raise SQLError(
            f"unexpected token {self.current.value!r} in expression")


def parse_reference(sql) -> nodes.Statement:
    return ReferenceParser(sql).parse()


# -- comparison --------------------------------------------------------------------


def shape(value):
    """The node class tree with every field; tainted strings with their
    range maps."""
    if isinstance(value, nodes.Node):
        fields = {name: shape(getattr(value, name)) for name in value.__slots__}
        return (type(value).__name__, fields)
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [shape(item) for item in value])
    if isinstance(value, TaintedStr):
        return ("TaintedStr", str(value), value.rangemap)
    return (type(value).__name__, value)


def outcome(parser, sql):
    try:
        statement = parser(sql)
    except SQLError as exc:
        return ("SQLError", str(exc))
    text = statement.to_sql()
    return ("ok", shape(statement), str(text), text.rangemap)


def relabel(sql):
    """``sql`` with each slot replaced by another of its kind: a string
    literal by its body reversed plus ``v``, which carries ``RELABELED``
    too if it carried a policy (a ``DEFAULT`` takes only plain text); a
    number by a different one.  The skeleton stays the same."""
    parts = SLOTS.split(sql)
    pieces = []
    offset = 0
    for index, part in enumerate(parts):
        if index % 2 == 0:
            pieces.append(sql[offset : offset + len(part)])
        elif part[0] == "'":
            body = sql[offset + 1 : offset + len(part) - 1][::-1] + "v"
            if isinstance(body, TaintedStr) and body.policies():
                body = taint_str(body, [RELABELED])
            pieces.append("'" + body + "'")
        elif "." in part:
            pieces.append("7.25" if part != "7.25" else ".5")
        else:
            pieces.append(str(int(part) + 7))
        offset += len(part)
    variant = TaintedStr("").join(pieces)
    assert skeleton(SLOTS.split(variant)) == skeleton(parts)
    return variant


def assert_same_outcome(sql):
    assert outcome(parse, sql) == outcome(parse_reference, sql)
    variant = relabel(sql)
    assert outcome(parse, variant) == outcome(parse_reference, variant)


# -- the statement grammar ---------------------------------------------------------

U1 = UntrustedData("form")
U2 = UntrustedData("cookie")
RELABELED = UntrustedData("relabeled")


def words(*parts):
    """Join the non-empty parts with single spaces, keeping their taint."""
    return TaintedStr(" ").join(TaintedStr(part) for part in parts if part)


def optional(strategy):
    return st.one_of(st.just(""), strategy)


def keyword(word):
    """``word`` in upper, lower or mixed case."""
    return st.sampled_from([word.upper(), word.lower(), word.capitalize()])


def comma_list(strategy, max_size=3):
    return st.lists(strategy, min_size=1, max_size=max_size).map(
        TaintedStr(", ").join
    )


# Names: plain, unreserved keywords (which double as identifiers), and
# backquoted identifiers, some spelled like keywords or functions.
names = st.sampled_from(
    ["a", "b", "email", "t", "Name_1", "key", "text", "`from`", "`select`",
     "`where`", "`x y`", "`count`", "`LOWER`"]
)
literal_body = st.lists(
    st.tuples(
        st.sampled_from(["a", "bob", "''", "it''s", " ", "x y", "--", "<b>"]),
        st.sampled_from([(), (U1,), (U2,), (U1, U2)]),
    ),
    max_size=4,
).map(
    lambda pieces: TaintedStr("").join(
        taint_str(text, list(policies)) for text, policies in pieces
    )
)
strings = literal_body.map(lambda body: "'" + body + "'")
integers = st.integers(0, 999).map(str)
numbers = st.one_of(integers, st.sampled_from(["2.5", ".5", "10.", "0.25"]))
column_refs = st.one_of(names, st.tuples(names, names).map(".".join))
atoms = st.one_of(
    strings, numbers, keyword("null"), st.sampled_from([":p", ":user_id"]), column_refs
)


def compound(inner):
    negation = optional(keyword("not"))
    return st.one_of(
        st.tuples(
            inner, st.sampled_from(["=", "!=", "<>", "<", "<=", ">", ">=", "+", "-"]),
            inner,
        ).map(lambda parts: words(*parts)),
        st.tuples(inner, keyword("and") | keyword("or"), inner).map(
            lambda parts: words(*parts)
        ),
        st.tuples(keyword("not"), inner).map(lambda parts: words(*parts)),
        inner.map(lambda expr: words("(", expr, ")")),
        st.tuples(st.sampled_from(["-", "+", "- -"]), inner).map(
            lambda parts: words(*parts)
        ),
        st.tuples(
            st.sampled_from(["lower", "UPPER", "length", "count", "min", "MAX",
                             "sum", "avg"]),
            comma_list(inner, max_size=2),
        ).map(lambda parts: words(parts[0], "(", parts[1], ")")),
        keyword("count").map(lambda name: name + "(*)"),
        st.tuples(inner, negation, keyword("like"), inner).map(
            lambda parts: words(*parts)
        ),
        st.tuples(inner, negation, keyword("in"), comma_list(inner)).map(
            lambda parts: words(parts[0], parts[1], parts[2], "(", parts[3], ")")
        ),
        st.tuples(inner, negation).map(
            lambda parts: words(parts[0], "IS", parts[1], "NULL")
        ),
    )


expressions = st.recursive(atoms, compound, max_leaves=6)

select_items = st.one_of(
    st.just("*"),
    names.map(lambda name: name + ".*"),
    expressions,
    st.tuples(expressions, keyword("as"), names).map(lambda parts: words(*parts)),
    st.tuples(expressions, names).map(lambda parts: words(*parts)),
)
orderings = st.tuples(
    expressions, st.sampled_from(["", "ASC", "desc"])
).map(lambda parts: words(*parts))
selects = st.tuples(
    keyword("select"),
    optional(keyword("distinct")),
    comma_list(select_items),
    optional(names.map(lambda name: words("FROM", name))),
    optional(expressions.map(lambda expr: words("WHERE", expr))),
    optional(comma_list(orderings).map(lambda items: words("ORDER BY", items))),
    optional(
        st.tuples(integers, optional(integers.map(lambda n: "OFFSET " + n))).map(
            lambda parts: words("LIMIT", *parts)
        )
    ),
).map(lambda parts: words(*parts))


@st.composite
def inserts(draw):
    columns = draw(st.lists(names, min_size=1, max_size=3))
    arity = len(columns) + draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    row = st.lists(expressions, min_size=max(arity, 1), max_size=max(arity, 1))
    rows = draw(st.lists(row, min_size=1, max_size=3))
    values = TaintedStr(", ").join(
        words("(", TaintedStr(", ").join(row), ")") for row in rows
    )
    return words(
        "INSERT INTO", draw(names), "(", ", ".join(columns), ")", "VALUES", values
    )


assignments = st.tuples(names, expressions).map(
    lambda parts: words(parts[0], "=", parts[1])
)
updates = st.tuples(
    names, comma_list(assignments), optional(expressions.map(lambda e: "WHERE " + e))
).map(lambda parts: words("UPDATE", parts[0], "SET", parts[1], parts[2]))
deletes = st.tuples(names, optional(expressions.map(lambda e: "WHERE " + e))).map(
    lambda parts: words("DELETE FROM", *parts)
)
column_types = st.sampled_from(
    ["", "INTEGER", "int", "TEXT", "real", "FLOAT", "varchar(20)", "CHAR (8)"]
)
constraints = st.lists(
    st.one_of(
        st.sampled_from(["PRIMARY KEY", "not null", "UNIQUE", "AUTOINCREMENT"]),
        # Plain literals: a default's text is a plain string, and formatting
        # a tainted one into it warns.
        st.sampled_from(["'s'", "'it''s'", "7", "2.5", "NULL", "-1", "(1)"]).map(
            lambda value: "DEFAULT " + value
        ),
    ),
    max_size=2,
).map(lambda items: words(*items))
column_defs = st.tuples(names, column_types, constraints).map(
    lambda parts: words(*parts)
)
creates = st.one_of(
    st.tuples(
        optional(st.just("IF NOT EXISTS")), names, comma_list(column_defs)
    ).map(lambda parts: words("CREATE TABLE", parts[0], parts[1], "(", parts[2], ")")),
    st.tuples(
        optional(st.just("IF NOT EXISTS")),
        names,
        names,
        names,
        optional(st.sampled_from(["USING hash", "using SORTED"])),
    ).map(
        lambda parts: words(
            "CREATE INDEX", parts[0], parts[1], "ON", parts[2], "(", parts[3], ")",
            parts[4],
        )
    ),
)
drops = st.tuples(
    st.sampled_from(["TABLE", "index"]), optional(st.just("IF EXISTS")), names
).map(lambda parts: words("DROP", *parts))
plain_statements = st.one_of(selects, inserts(), updates, deletes, creates, drops)
statements = st.tuples(
    st.sampled_from(["", "", "", "", "", "EXPLAIN", "EXPLAIN", "EXPLAIN EXPLAIN"]),
    plain_statements,
    st.sampled_from(["", "", ";"]),
).map(lambda parts: words(*parts))

# Token soups: short runs of tokens after a statement's first words, mostly
# malformed.  Numbers are whole, so no soup reaches a fractional LIMIT.
SOUP = [
    "SELECT", "FROM", "WHERE", "INSERT", "INTO", "VALUES", "UPDATE", "SET",
    "DELETE", "CREATE", "TABLE", "INDEX", "DROP", "IF", "NOT", "EXISTS", "ON",
    "USING", "EXPLAIN", "ORDER", "BY", "ASC", "DESC", "LIMIT", "OFFSET",
    "DISTINCT", "AS", "AND", "OR", "LIKE", "IN", "IS", "NULL", "PRIMARY", "KEY",
    "UNIQUE", "DEFAULT", "AUTOINCREMENT", "INTEGER", "varchar", "count", "lower",
    "a", "t", "`from`", "`x y`", "1", "42", "'s'", "'it''s'", "=", "<>", "!=",
    "<", ">=", "+", "-", "(", ")", ",", ".", ";", "*", ":p",
]
STARTS = [
    "", "SELECT", "SELECT a", "SELECT a FROM t WHERE", "INSERT INTO t (a) VALUES",
    "UPDATE t SET", "DELETE FROM t", "CREATE TABLE t (", "CREATE INDEX i ON",
    "DROP", "EXPLAIN", "EXPLAIN SELECT", "SELECT a FROM t ORDER BY a LIMIT",
]
soups = st.tuples(
    st.sampled_from(STARTS), st.lists(st.sampled_from(SOUP), max_size=10)
).map(lambda parts: words(parts[0], *parts[1]))


# -- the differential tests ----------------------------------------------------------


class TestParserParity:
    @settings(max_examples=400)
    @given(sql=statements)
    @example(
        sql="SELECT DISTINCT a `from`, b AS `select`, t.*, count(*) FROM t "
        "WHERE a <> 1 AND b NOT IN (1, :p) OR NOT c NOT LIKE 'x''y' "
        "AND d IS NOT NULL ORDER BY a DESC, b LIMIT 2 OFFSET 3"
    )
    @example(sql="INSERT INTO t (a, `key`) VALUES (-1.5, 'x'), (+2, NULL);")
    @example(sql="EXPLAIN UPDATE t SET a = lower(b), c = - - 3 WHERE `where` = .5")
    @example(sql="CREATE TABLE IF NOT EXISTS t (a INTEGER PRIMARY KEY, "
             "b varchar(8) NOT NULL UNIQUE DEFAULT 'x', c AUTOINCREMENT)")
    @example(sql="CREATE INDEX IF NOT EXISTS i ON t (a) USING hash")
    @example(sql="DROP INDEX IF EXISTS i")
    def test_statements_match_reference(self, sql):
        assert_same_outcome(sql)

    @settings(max_examples=400)
    @given(sql=soups)
    def test_token_soups_match_reference(self, sql):
        assert_same_outcome(sql)


# Slots that are no STRING or NUMBER token of the same span, or that do not
# land unchanged in one Literal: such statements keep no template.
NO_TEMPLATE = [
    "SELECT a /* 'x' 1 */ FROM t WHERE b = 2",  # in a comment
    "SELECT a -- 'x' 1\n FROM t WHERE b = 2",
    "SELECT `a 1`, `'x'` FROM t WHERE b = 2",  # in a backquoted name
    "SELECT a FROM t WHERE b = \u0661\u0662",  # a non-ASCII number
    "SELECT a FROM t WHERE b = 'x' AND c = -1",  # a negated number
    "SELECT a FROM t WHERE b = 'x' LIMIT 2 OFFSET 3",  # row counts
    "CREATE TABLE t (a varchar(8), b TEXT)",  # a type width
    "CREATE TABLE t (a TEXT DEFAULT 'x')",  # a default
]
# Statements whose every slot is a literal of the tree, near text that is
# no slot: a word, parameter or qualified name holding a digit, a sign.
TEMPLATE = [
    "SELECT :p1, t.a1, a2, b_3 FROM t WHERE b = '\u0661\u0662' AND c = +1",
    "UPDATE t SET a = 'x''y', b = 2.5 WHERE c IN (1, .5, 'z') OR d = 10.",
    "EXPLAIN DELETE FROM t WHERE a = 1 AND b LIKE '%x%'",
]


class TestTemplates:
    @pytest.mark.parametrize("sql", NO_TEMPLATE)
    def test_statements_that_keep_no_template_match_reference(self, sql):
        parser.clear_templates()
        assert_same_outcome(sql)
        assert not parser._templates

    @pytest.mark.parametrize("sql", TEMPLATE)
    def test_statements_that_keep_a_template_match_reference(self, sql):
        parser.clear_templates()
        assert_same_outcome(sql)
        assert list(parser._templates) == [skeleton(SLOTS.split(sql))]
