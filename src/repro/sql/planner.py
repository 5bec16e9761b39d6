"""Query planner: parsed statements → explicit plan trees.

The planner sits between :mod:`repro.sql.parser` and
:mod:`repro.sql.executor`.  It inspects a statement plus the target table's
index catalog and produces a tree of plan nodes; the executor compiles the
tree into closures and runs them.  An engine plans and compiles each
prepared statement (:class:`repro.sql.parser.Template`) once, and keeps
the compiled plan with the catalog stamp of its table
(:attr:`repro.sql.engine.Table.stamp`): every CREATE/DROP INDEX, DROP and
CREATE TABLE and lazily added column changes the stamp, and an execution
whose table's stamp differs plans again, under the statement's table lock.
A statement's slots (:class:`~repro.sql.nodes.Slot`) and parameters are
constants to the planner, like literals, so one plan serves every
execution of a shape.

Access-path selection is deliberately conservative: an ``IndexLookup`` or
``IndexRange`` node only *narrows* the scan to a candidate superset (see
:mod:`repro.sql.indexes`), and the full WHERE clause is always re-applied
by a ``Filter`` node above it.  Every plan therefore evaluates exactly the
same predicate on exactly the rows it returns as a sequential scan would —
index use can change performance, never results.

EXPLAIN text contract (stable; tests and docs rely on it): one node per
line, two-space indentation per tree level, the node name first.  Example::

    Project [*]
      Filter (email = 'pc@example.org')
        IndexLookup users.email USING idx_users_email (sorted) probes=['pc@example.org']
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.exceptions import SQLError
from . import nodes

__all__ = [
    "Plan",
    "SeqScan",
    "IndexLookup",
    "IndexRange",
    "Filter",
    "Distinct",
    "Project",
    "Aggregate",
    "Sort",
    "Slice",
    "ScalarSelect",
    "InsertPlan",
    "UpdatePlan",
    "DeletePlan",
    "Planner",
    "bind_parameters",
    "collect_params",
    "walk",
]

#: Aggregate function names (mirrors the parser's set).
AGGREGATES = ("count", "min", "max", "sum", "avg")


def _sql(expr: Optional[nodes.Node]) -> str:
    return "" if expr is None else str(expr.to_sql())


class Plan:
    """Base plan node.  ``children`` and ``describe`` drive EXPLAIN."""

    children: Tuple["Plan", ...] = ()

    def describe(self) -> str:
        raise NotImplementedError

    def explain(self) -> List[str]:
        """The stable EXPLAIN rendering of this subtree."""
        lines = [self.describe()]
        for child in self.children:
            lines.extend("  " + line for line in child.explain())
        return lines

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()!r})"


class SeqScan(Plan):
    """Scan every row of a table in storage order."""

    def __init__(self, table: str):
        self.table = table

    def describe(self) -> str:
        return f"SeqScan {self.table}"


class IndexLookup(Plan):
    """Probe an index for equality candidates (``=`` or ``IN``)."""

    def __init__(
        self,
        table: str,
        index: str,
        column: str,
        kind: str,
        probes: Sequence[nodes.Expr],
    ):
        self.table = table
        self.index = index
        self.column = column
        self.kind = kind
        self.probes = list(probes)

    def describe(self) -> str:
        rendered = ", ".join(_sql(p) for p in self.probes)
        return (
            f"IndexLookup {self.table}.{self.column} USING {self.index} "
            f"({self.kind}) probes=[{rendered}]"
        )


class IndexRange(Plan):
    """Walk a sorted index between two (inclusive candidate) bounds."""

    def __init__(
        self,
        table: str,
        index: str,
        column: str,
        lo: Optional[nodes.Expr],
        lo_op: Optional[str],
        hi: Optional[nodes.Expr],
        hi_op: Optional[str],
    ):
        self.table = table
        self.index = index
        self.column = column
        self.lo = lo
        self.lo_op = lo_op
        self.hi = hi
        self.hi_op = hi_op

    def describe(self) -> str:
        parts = []
        if self.lo is not None:
            parts.append(f"{self.lo_op} {_sql(self.lo)}")
        if self.hi is not None:
            parts.append(f"{self.hi_op} {_sql(self.hi)}")
        bounds = ", ".join(parts)
        return (f"IndexRange {self.table}.{self.column} USING {self.index} "
                f"(sorted) [{bounds}]")


class Filter(Plan):
    """Re-check the full WHERE clause against each candidate row."""

    children: Tuple[Plan, ...]

    def __init__(self, child: Plan, predicate: nodes.Expr):
        self.children = (child,)
        self.predicate = predicate

    def describe(self) -> str:
        return f"Filter {_sql(self.predicate)}"


class Distinct(Plan):
    """Keep the first row of each distinct value of the SELECT items.

    Which rows survive is decided over the stored rows, like WHERE and
    ORDER BY: an implicit flow, not a value that carries policies."""

    def __init__(self, child: Plan, table: str, items: Sequence[nodes.SelectItem]):
        self.children = (child,)
        self.table = table
        self.items = list(items)

    def describe(self) -> str:
        rendered = ", ".join(_sql(item) for item in self.items)
        return f"Distinct [{rendered}]"


class Project(Plan):
    """Evaluate the SELECT items over the child's rows."""

    def __init__(self, child: Plan, table: str, items: Sequence[nodes.SelectItem]):
        self.children = (child,)
        self.table = table
        self.items = list(items)

    def describe(self) -> str:
        rendered = ", ".join(_sql(item) for item in self.items)
        return f"Project [{rendered}]"


class Aggregate(Plan):
    """Fold the child's rows through aggregate select items."""

    def __init__(self, child: Plan, table: str, items: Sequence[nodes.SelectItem]):
        self.children = (child,)
        self.table = table
        self.items = list(items)

    def describe(self) -> str:
        rendered = ", ".join(_sql(item) for item in self.items)
        return f"Aggregate [{rendered}]"


class Sort(Plan):
    """Stable multi-key sort (applied last-key-first, like the engine)."""

    def __init__(self, child: Plan, table: str, order_by: Sequence[nodes.OrderBy]):
        self.children = (child,)
        self.table = table
        self.order_by = list(order_by)

    def describe(self) -> str:
        rendered = ", ".join(_sql(o) for o in self.order_by)
        return f"Sort [{rendered}]"


class Slice(Plan):
    """OFFSET / LIMIT applied to the (possibly sorted) row stream."""

    def __init__(self, child: Plan, limit: Optional[int], offset: Optional[int]):
        self.children = (child,)
        self.limit = limit
        self.offset = offset

    def describe(self) -> str:
        parts = []
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        if self.offset:
            parts.append(f"OFFSET {self.offset}")
        return "Slice " + " ".join(parts)


class ScalarSelect(Plan):
    """A table-less SELECT evaluated against one empty row."""

    def __init__(self, items: Sequence[nodes.SelectItem]):
        self.items = list(items)

    def describe(self) -> str:
        rendered = ", ".join(_sql(item) for item in self.items)
        return f"ScalarSelect [{rendered}]"


class InsertPlan(Plan):
    def __init__(self, statement: nodes.Insert):
        self.statement = statement

    def describe(self) -> str:
        stmt = self.statement
        return (f"Insert {stmt.table} ({len(stmt.rows)} "
                f"row{'s' if len(stmt.rows) != 1 else ''})")


class UpdatePlan(Plan):
    """Collect matching positions from ``source``, then apply SET."""

    def __init__(self, statement: nodes.Update, source: Plan):
        self.children = (source,)
        self.statement = statement
        self.source = source

    def describe(self) -> str:
        stmt = self.statement
        columns = ", ".join(column for column, _ in stmt.assignments)
        return f"Update {stmt.table} SET [{columns}]"


class DeletePlan(Plan):
    """Collect matching positions from ``source``, then delete them."""

    def __init__(self, statement: nodes.Delete, source: Plan):
        self.children = (source,)
        self.statement = statement
        self.source = source

    def describe(self) -> str:
        return f"Delete {self.statement.table}"


# -- planning -------------------------------------------------------------------


def _is_constant(expr: nodes.Expr) -> bool:
    """Probe expressions an index can be driven by: values known at
    execution time without a row (literals, and the slots and parameters
    each execution binds)."""
    return isinstance(expr, (nodes.Literal, nodes.Param, nodes.Slot))


def _conjuncts(expr: Optional[nodes.Expr]) -> List[nodes.Expr]:
    """Flatten the AND-tree of a WHERE clause into its conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, nodes.BinaryOp) and expr.op == "and":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


class Planner:
    """Builds plan trees from statements against an engine's catalog.

    ``engine`` is duck-typed: the planner only reads ``engine.tables`` —
    a mapping of table name → object with ``column_names`` and ``indexes``
    (name → :class:`~repro.sql.indexes.SecondaryIndex`) attributes.
    """

    def __init__(self, engine):
        self.engine = engine

    def plan(self, statement: nodes.Statement) -> Plan:
        if isinstance(statement, nodes.Explain):
            return self.plan(statement.statement)
        if isinstance(statement, nodes.Select):
            return self.plan_select(statement)
        if isinstance(statement, nodes.Insert):
            return InsertPlan(statement)
        if isinstance(statement, nodes.Update):
            source = self._scan(statement.table, statement.where)
            return UpdatePlan(statement, source)
        if isinstance(statement, nodes.Delete):
            source = self._scan(statement.table, statement.where)
            return DeletePlan(statement, source)
        raise SQLError(f"cannot plan {type(statement).__name__}")

    def plan_select(self, stmt: nodes.Select) -> Plan:
        if stmt.table is None:
            return ScalarSelect(stmt.items)
        child = self._scan(stmt.table, stmt.where)
        if self._is_aggregate(stmt):
            # Aggregates ignore ORDER BY / LIMIT, exactly like the
            # reference scan path.
            return Aggregate(child, stmt.table, stmt.items)
        if stmt.order_by:
            child = Sort(child, stmt.table, stmt.order_by)
        if stmt.distinct:
            # SQL's order: DISTINCT before OFFSET / LIMIT.
            child = Distinct(child, stmt.table, stmt.items)
        if stmt.limit is not None or stmt.offset:
            child = Slice(child, stmt.limit, stmt.offset)
        return Project(child, stmt.table, stmt.items)

    @staticmethod
    def _is_aggregate(stmt: nodes.Select) -> bool:
        return any(
            isinstance(item.expr, nodes.FuncCall) and item.expr.name in AGGREGATES
            for item in stmt.items
        )

    # -- access-path selection ---------------------------------------------

    def _scan(self, table_name: str, where: Optional[nodes.Expr]) -> Plan:
        """The access path for ``table`` under ``where``: an index scan
        when a sargable conjunct lines up with a declared index, a
        sequential scan otherwise — always followed by a full re-check."""
        access: Plan = SeqScan(table_name)
        table = self.engine.tables.get(str(table_name))
        indexes = getattr(table, "indexes", None) if table is not None else None
        if indexes:
            chosen = self._choose_index_path(table_name, indexes, where)
            if chosen is not None:
                access = chosen
        if where is not None:
            return Filter(access, where)
        return access

    def _choose_index_path(
        self,
        table_name: str,
        indexes: Dict[str, Any],
        where: Optional[nodes.Expr],
    ) -> Optional[Plan]:
        conjuncts = _conjuncts(where)
        by_column: Dict[str, List[Any]] = {}
        for index in indexes.values():
            by_column.setdefault(index.column, []).append(index)

        # Equality probes first: a point lookup beats a range walk.
        for conjunct in conjuncts:
            probe = self._equality_probe(conjunct, by_column)
            if probe is not None:
                return probe

        # Then a range over a sorted index, combining bounds per column.
        bounds: Dict[str, List[Tuple[str, nodes.Expr]]] = {}
        for conjunct in conjuncts:
            bound = self._range_bound(conjunct)
            if bound is not None:
                column, op, expr = bound
                bounds.setdefault(column, []).append((op, expr))
        for column, pairs in bounds.items():
            for index in by_column.get(column, ()):
                if index.kind != "sorted":
                    continue
                lo = lo_op = hi = hi_op = None
                for op, expr in pairs:
                    if op in (">", ">=") and lo is None:
                        lo, lo_op = expr, op
                    elif op in ("<", "<=") and hi is None:
                        hi, hi_op = expr, op
                if lo is None and hi is None:
                    continue
                return IndexRange(table_name, index.name, column, lo, lo_op, hi, hi_op)
        return None

    def _equality_probe(
        self, conjunct: nodes.Expr, by_column: Dict[str, List[Any]]
    ) -> Optional[Plan]:
        column = None
        probes: List[nodes.Expr] = []
        if isinstance(conjunct, nodes.BinaryOp) and conjunct.op == "=":
            if isinstance(conjunct.left, nodes.ColumnRef) and _is_constant(
                conjunct.right
            ):
                column, probes = conjunct.left.name, [conjunct.right]
            elif isinstance(conjunct.right, nodes.ColumnRef) and _is_constant(
                conjunct.left
            ):
                column, probes = conjunct.right.name, [conjunct.left]
        elif (
            isinstance(conjunct, nodes.InList)
            and not conjunct.negated
            and isinstance(conjunct.operand, nodes.ColumnRef)
            and all(_is_constant(item) for item in conjunct.items)
        ):
            column, probes = conjunct.operand.name, list(conjunct.items)
        if column is None:
            return None
        for index in by_column.get(column, ()):
            return IndexLookup(index.table, index.name, column, index.kind, probes)
        return None

    @staticmethod
    def _range_bound(conjunct: nodes.Expr):
        """``(column, op, bound_expr)`` for a sargable inequality, with the
        operator normalized to put the column on the left."""
        if not isinstance(conjunct, nodes.BinaryOp):
            return None
        if conjunct.op not in ("<", "<=", ">", ">="):
            return None
        if (isinstance(conjunct.left, nodes.ColumnRef)
                and _is_constant(conjunct.right)):
            return conjunct.left.name, conjunct.op, conjunct.right
        if (isinstance(conjunct.right, nodes.ColumnRef)
                and _is_constant(conjunct.left)):
            return conjunct.right.name, _FLIP[conjunct.op], conjunct.left
        return None


# -- tree walking and parameter binding -----------------------------------------


def walk(node: nodes.Node) -> Iterator[nodes.Node]:
    """``node`` and every node below it: the expressions of a statement,
    select item or expression, in no particular order."""
    pending = [node]
    while pending:
        node = pending.pop()
        if node is None:  # an absent WHERE
            continue
        yield node
        if isinstance(node, (nodes.UnaryOp, nodes.IsNull)):
            pending.append(node.operand)
        elif isinstance(node, nodes.BinaryOp):
            pending += (node.left, node.right)
        elif isinstance(node, nodes.InList):
            pending.append(node.operand)
            pending += node.items
        elif isinstance(node, nodes.FuncCall):
            pending += node.args
        elif isinstance(node, (nodes.SelectItem, nodes.OrderBy)):
            pending.append(node.expr)
        elif isinstance(node, nodes.Select):
            pending += (*node.items, *node.order_by, node.where)
        elif isinstance(node, nodes.Insert):
            for row in node.rows:
                pending += row
        elif isinstance(node, nodes.Update):
            pending += (expr for _, expr in node.assignments)
            pending.append(node.where)
        elif isinstance(node, nodes.Delete):
            pending.append(node.where)
        elif isinstance(node, nodes.Explain):
            pending.append(node.statement)


def collect_params(statement: nodes.Node) -> Set[str]:
    """The names of every :class:`~repro.sql.nodes.Param` in ``statement``."""
    return {node.name for node in walk(statement) if isinstance(node, nodes.Param)}


def bind_parameters(statement, params: Dict[Any, Any]):
    """A copy of ``statement`` with each ``:name`` in ``params`` replaced
    by ``Literal(params[name])`` (taint preserved, as an execution binds
    it), and each slot whose index is in ``params`` by
    ``Literal(params[index])``.  Parameters missing from ``params`` survive
    unchanged, so a partially-bound statement can still be planned and
    explained; executing it raises ``SQLError``.
    """
    if not params:
        return statement
    return _bind(statement, params)


def _bind(node, params):
    if isinstance(node, (nodes.Param, nodes.Slot)):
        key = node.name if type(node) is nodes.Param else node.index
        if key in params:
            return nodes.Literal(params[key])
        return node
    if isinstance(node, (nodes.Literal, nodes.ColumnRef, nodes.Star)):
        return node
    if isinstance(node, nodes.UnaryOp):
        return nodes.UnaryOp(node.op, _bind(node.operand, params))
    if isinstance(node, nodes.BinaryOp):
        return nodes.BinaryOp(
            node.op, _bind(node.left, params), _bind(node.right, params)
        )
    if isinstance(node, nodes.InList):
        return nodes.InList(
            _bind(node.operand, params),
            [_bind(item, params) for item in node.items],
            node.negated,
        )
    if isinstance(node, nodes.IsNull):
        return nodes.IsNull(_bind(node.operand, params), node.negated)
    if isinstance(node, nodes.FuncCall):
        return nodes.FuncCall(
            node.name, [_bind(arg, params) for arg in node.args], node.star
        )
    if isinstance(node, nodes.SelectItem):
        return nodes.SelectItem(_bind(node.expr, params), node.alias)
    if isinstance(node, nodes.OrderBy):
        return nodes.OrderBy(_bind(node.expr, params), node.descending)
    if isinstance(node, nodes.Select):
        where = None if node.where is None else _bind(node.where, params)
        return nodes.Select(
            [_bind(item, params) for item in node.items],
            node.table,
            where,
            [_bind(o, params) for o in node.order_by],
            node.limit,
            node.offset,
            node.distinct,
        )
    if isinstance(node, nodes.Insert):
        return nodes.Insert(
            node.table,
            node.columns,
            [[_bind(expr, params) for expr in row] for row in node.rows],
        )
    if isinstance(node, nodes.Update):
        where = None if node.where is None else _bind(node.where, params)
        return nodes.Update(
            node.table,
            [(column, _bind(expr, params)) for column, expr in node.assignments],
            where,
        )
    if isinstance(node, nodes.Delete):
        where = None if node.where is None else _bind(node.where, params)
        return nodes.Delete(node.table, where)
    if isinstance(node, nodes.Explain):
        return nodes.Explain(_bind(node.statement, params))
    # CREATE/DROP TABLE, CREATE/DROP INDEX: no parameterizable expressions.
    return node
