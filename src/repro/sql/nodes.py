"""SQL abstract syntax tree nodes.

The parser produces these nodes and the engine executes them; the SQL
channel (:mod:`repro.channels.sqlchan`) rewrites only ``CREATE TABLE``, to
add policy columns.  Every node can regenerate SQL text via ``to_sql()``;
literal values keep their taint, so a regenerated query's characters carry
the same policies as the original (used by tests and by applications that
log queries).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..tracking.tainted_str import TaintedStr
from ..tracking.propagation import concat, to_tainted_str


def quote_literal(value) -> TaintedStr:
    """Render a Python value as a SQL literal, preserving taint."""
    if value is None:
        return TaintedStr("NULL")
    if isinstance(value, bool):
        return TaintedStr("1" if value else "0")
    if isinstance(value, (int, float)):
        return to_tainted_str(value)
    text = to_tainted_str(value)
    return concat("'", text.replace("'", "''"), "'")


class Node:
    """Base class for AST nodes.

    Each class lists its fields in ``__slots__``, in the order its
    constructor takes them; the parser's template binder copies a node
    field by field (``repro.sql.parser._rebind``).  With no instance dict,
    a copy's attributes read as fast as a parsed node's: on CPython 3.11 a
    dict built by reading ``__dict__`` made every later read slower, in
    planning and execution alike.  A parsed statement shares branches with
    the parser's template memo, so no code changes a node's fields after
    parsing: a rewrite builds new nodes."""

    __slots__ = ()

    def to_sql(self) -> TaintedStr:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self.to_sql())!r})"

    def __eq__(self, other) -> bool:
        return (type(self) is type(other)
                and str(self.to_sql()) == str(other.to_sql()))

    def __hash__(self) -> int:
        return hash((type(self).__name__, str(self.to_sql())))


# -- expressions ---------------------------------------------------------------


class Expr(Node):
    __slots__ = ()


class Literal(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def to_sql(self) -> TaintedStr:
        return quote_literal(self.value)


class ColumnRef(Expr):
    __slots__ = ("name", "table")

    def __init__(self, name: str, table: Optional[str] = None):
        self.name = str(name)
        self.table = str(table) if table else None

    def to_sql(self) -> TaintedStr:
        if self.table:
            return TaintedStr(f"{self.table}.{self.name}")
        return TaintedStr(self.name)


class Param(Expr):
    """A named placeholder (``:name``) bound at execution time.

    Parameters survive planning — a prepared plan shows ``:name`` in its
    EXPLAIN text — and a compiled plan reads each one's value (taint and
    all) from the arguments of the execution that binds it;
    :func:`repro.sql.planner.bind_parameters` substitutes :class:`Literal`
    values into a tree, for EXPLAIN."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = str(name)

    def to_sql(self) -> TaintedStr:
        return TaintedStr(f":{self.name}")


class Slot(Expr):
    """Slot ``index`` of a prepared statement
    (:class:`repro.sql.parser.Template`): where a statement of the
    template's shape has a string literal or a number.  An execution binds
    it to the value cut from its own text."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def to_sql(self) -> TaintedStr:
        return TaintedStr(f"?{self.index}")


class Star(Expr):
    __slots__ = ("table",)

    def __init__(self, table: Optional[str] = None):
        self.table = table

    def to_sql(self) -> TaintedStr:
        return TaintedStr(f"{self.table}.*" if self.table else "*")


class UnaryOp(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        self.op = op.lower()
        self.operand = operand

    def to_sql(self) -> TaintedStr:
        return concat(self.op.upper(), " ", self.operand.to_sql())


class BinaryOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op.lower()
        self.left = left
        self.right = right

    def to_sql(self) -> TaintedStr:
        return concat(
            "(", self.left.to_sql(), " ", self.op.upper(), " ", self.right.to_sql(), ")"
        )


class InList(Expr):
    __slots__ = ("operand", "items", "negated")

    def __init__(self, operand: Expr, items: Sequence[Expr], negated: bool = False):
        self.operand = operand
        self.items = list(items)
        self.negated = negated

    def to_sql(self) -> TaintedStr:
        rendered = TaintedStr(", ").join(i.to_sql() for i in self.items)
        keyword = "NOT IN" if self.negated else "IN"
        return concat(self.operand.to_sql(), f" {keyword} (", rendered, ")")


class IsNull(Expr):
    __slots__ = ("operand", "negated")

    def __init__(self, operand: Expr, negated: bool = False):
        self.operand = operand
        self.negated = negated

    def to_sql(self) -> TaintedStr:
        suffix = " IS NOT NULL" if self.negated else " IS NULL"
        return concat(self.operand.to_sql(), suffix)


class FuncCall(Expr):
    __slots__ = ("name", "args", "star")

    def __init__(self, name: str, args: Sequence[Expr], star: bool = False):
        self.name = name.lower()
        self.args = list(args)
        self.star = star

    def to_sql(self) -> TaintedStr:
        if self.star:
            return TaintedStr(f"{self.name.upper()}(*)")
        rendered = TaintedStr(", ").join(a.to_sql() for a in self.args)
        return concat(self.name.upper(), "(", rendered, ")")


# -- statements -------------------------------------------------------------------


class Statement(Node):
    __slots__ = ()


class ColumnDef(Node):
    __slots__ = ("name", "type", "constraints")

    def __init__(self, name: str, type: str = "TEXT", constraints: Sequence[str] = ()):
        self.name = str(name)
        self.type = str(type).upper()
        self.constraints = tuple(constraints)

    def to_sql(self) -> TaintedStr:
        extra = (" " + " ".join(self.constraints)) if self.constraints else ""
        return TaintedStr(f"{self.name} {self.type}{extra}")


class CreateTable(Statement):
    __slots__ = ("table", "columns", "if_not_exists")

    def __init__(
        self, table: str, columns: Sequence[ColumnDef], if_not_exists: bool = False
    ):
        self.table = str(table)
        self.columns = list(columns)
        self.if_not_exists = if_not_exists

    def to_sql(self) -> TaintedStr:
        cols = TaintedStr(", ").join(c.to_sql() for c in self.columns)
        clause = "IF NOT EXISTS " if self.if_not_exists else ""
        return concat(f"CREATE TABLE {clause}{self.table} (", cols, ")")


class DropTable(Statement):
    __slots__ = ("table", "if_exists")

    def __init__(self, table: str, if_exists: bool = False):
        self.table = str(table)
        self.if_exists = if_exists

    def to_sql(self) -> TaintedStr:
        clause = "IF EXISTS " if self.if_exists else ""
        return TaintedStr(f"DROP TABLE {clause}{self.table}")


class CreateIndex(Statement):
    __slots__ = ("name", "table", "column", "kind", "if_not_exists")

    def __init__(
        self,
        name: str,
        table: str,
        column: str,
        kind: str = "sorted",
        if_not_exists: bool = False,
    ):
        self.name = str(name)
        self.table = str(table)
        self.column = str(column)
        self.kind = str(kind).lower()
        self.if_not_exists = if_not_exists

    def to_sql(self) -> TaintedStr:
        clause = "IF NOT EXISTS " if self.if_not_exists else ""
        using = f" USING {self.kind.upper()}"
        return TaintedStr(
            f"CREATE INDEX {clause}{self.name} ON {self.table} "
            f"({self.column}){using}")


class DropIndex(Statement):
    __slots__ = ("name", "if_exists")

    def __init__(self, name: str, if_exists: bool = False):
        self.name = str(name)
        self.if_exists = if_exists

    def to_sql(self) -> TaintedStr:
        clause = "IF EXISTS " if self.if_exists else ""
        return TaintedStr(f"DROP INDEX {clause}{self.name}")


class Explain(Statement):
    """``EXPLAIN <statement>``: plan the wrapped statement and return its
    plan text (one line per row) instead of executing it."""

    __slots__ = ("statement",)

    def __init__(self, statement: Statement):
        self.statement = statement

    @property
    def table(self) -> Optional[str]:
        # Mirrors the wrapped statement so lock scoping (which keys off a
        # statement's ``table`` attribute) covers planning-time reads of
        # the table's index catalog.
        return getattr(self.statement, "table", None)

    def to_sql(self) -> TaintedStr:
        return concat("EXPLAIN ", self.statement.to_sql())


class Insert(Statement):
    __slots__ = ("table", "columns", "rows")

    def __init__(
        self, table: str, columns: Sequence[str], rows: Sequence[Sequence[Expr]]
    ):
        self.table = str(table)
        self.columns = [str(c) for c in columns]
        self.rows = [list(row) for row in rows]

    def to_sql(self) -> TaintedStr:
        cols = ", ".join(self.columns)
        rendered_rows = []
        for row in self.rows:
            rendered_rows.append(
                concat("(", TaintedStr(", ").join(e.to_sql() for e in row), ")")
            )
        values = TaintedStr(", ").join(rendered_rows)
        return concat(f"INSERT INTO {self.table} ({cols}) VALUES ", values)


class OrderBy(Node):
    __slots__ = ("expr", "descending")

    def __init__(self, expr: Expr, descending: bool = False):
        self.expr = expr
        self.descending = descending

    def to_sql(self) -> TaintedStr:
        return concat(self.expr.to_sql(), " DESC" if self.descending else " ASC")


class SelectItem(Node):
    __slots__ = ("expr", "alias")

    def __init__(self, expr: Expr, alias: Optional[str] = None):
        self.expr = expr
        self.alias = alias

    def to_sql(self) -> TaintedStr:
        if self.alias:
            return concat(self.expr.to_sql(), f" AS {self.alias}")
        return self.expr.to_sql()

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        return str(self.expr.to_sql())


class Select(Statement):
    __slots__ = ("items", "table", "where", "order_by", "limit", "offset", "distinct")

    def __init__(
        self,
        items: Sequence[SelectItem],
        table: Optional[str],
        where: Optional[Expr] = None,
        order_by: Sequence[OrderBy] = (),
        limit: Optional[int] = None,
        offset: Optional[int] = None,
        distinct: bool = False,
    ):
        self.items = list(items)
        self.table = str(table) if table else None
        self.where = where
        self.order_by = list(order_by)
        self.limit = limit
        self.offset = offset
        self.distinct = distinct

    def to_sql(self) -> TaintedStr:
        pieces = [TaintedStr("SELECT ")]
        if self.distinct:
            pieces.append(TaintedStr("DISTINCT "))
        pieces.append(TaintedStr(", ").join(i.to_sql() for i in self.items))
        if self.table:
            pieces.append(TaintedStr(f" FROM {self.table}"))
        if self.where is not None:
            pieces.append(concat(" WHERE ", self.where.to_sql()))
        if self.order_by:
            pieces.append(
                concat(
                    " ORDER BY ",
                    TaintedStr(", ").join(o.to_sql() for o in self.order_by),
                )
            )
        if self.limit is not None:
            pieces.append(TaintedStr(f" LIMIT {self.limit}"))
        if self.offset is not None:
            pieces.append(TaintedStr(f" OFFSET {self.offset}"))
        return concat(*pieces)


class Update(Statement):
    __slots__ = ("table", "assignments", "where")

    def __init__(
        self,
        table: str,
        assignments: Sequence[Tuple[str, Expr]],
        where: Optional[Expr] = None,
    ):
        self.table = str(table)
        self.assignments = [(str(col), expr) for col, expr in assignments]
        self.where = where

    def to_sql(self) -> TaintedStr:
        sets = TaintedStr(", ").join(
            concat(col, " = ", expr.to_sql())
            for col, expr in self.assignments)
        query = concat(f"UPDATE {self.table} SET ", sets)
        if self.where is not None:
            query = concat(query, " WHERE ", self.where.to_sql())
        return query


class Delete(Statement):
    __slots__ = ("table", "where")

    def __init__(self, table: str, where: Optional[Expr] = None):
        self.table = str(table)
        self.where = where

    def to_sql(self) -> TaintedStr:
        query = TaintedStr(f"DELETE FROM {self.table}")
        if self.where is not None:
            query = concat(query, " WHERE ", self.where.to_sql())
        return query
