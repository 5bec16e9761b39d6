"""Plan executor and SQL expression evaluation.

This module owns the *semantics* of the SQL dialect: comparison coercion,
LIKE matching, NULL handling, sort keys, scalar and aggregate functions.
The executor walks plan trees from :mod:`repro.sql.planner`; the naive
full-scan oracle of the plan-vs-naive differential tests calls the very
same helpers, which is what makes those tests meaningful — the two paths
can only differ in *which rows they visit*, never in how a visited row is
judged.

Row streams are ``(position, row)`` pairs in ascending position order, so
index-driven scans produce rows in exactly the storage order a sequential
scan would, and UPDATE/DELETE plans can collect positions before mutating.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.exceptions import SQLError
from ..tracking.propagation import (
    merge_values,
    policies_of,
    strip_policies,
    to_tainted_str,
)
from ..tracking.tainted_number import TaintedFloat, TaintedInt
from . import nodes
from .indexes import UNBOUNDED
from .planner import (
    Aggregate,
    Distinct,
    Filter,
    IndexLookup,
    IndexRange,
    Plan,
    Project,
    ScalarSelect,
    SeqScan,
    Slice,
    Sort,
)

__all__ = [
    "Executor",
    "Result",
    "Row",
    "StoredCells",
    "STORED",
    "evaluate",
    "stored_value",
    "sql_equal",
    "sql_like",
    "coerce_pair",
    "sort_key",
]


# -- results --------------------------------------------------------------------


class Row(dict):
    """A result row: a dict that also supports positional access."""

    def __init__(self, columns: Sequence[str], values: Sequence[Any]):
        super().__init__(zip(columns, values))
        self.columns = list(columns)

    def __getitem__(self, key):
        if isinstance(key, int):
            return super().__getitem__(self.columns[key])
        return super().__getitem__(key)

    def values_list(self) -> List[Any]:
        return [super(Row, self).__getitem__(col) for col in self.columns]


class Result:
    """Result of executing a statement."""

    def __init__(
        self,
        columns: Sequence[str] = (),
        rows: Iterable[Sequence[Any]] = (),
        rowcount: int = 0,
    ):
        self.columns = list(columns)
        self.rows: List[Row] = [
            row if isinstance(row, Row) else Row(self.columns, row) for row in rows
        ]
        self.rowcount = rowcount if rowcount else len(self.rows)

    def scalar(self) -> Any:
        """First column of the first row (or None)."""
        if not self.rows or not self.columns:
            return None
        return self.rows[0][self.columns[0]]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Result(columns={self.columns}, rows={len(self.rows)})"


# -- value semantics ------------------------------------------------------------


def stored_value(value):
    """The plain value a table cell holds.

    The engine stands in for an external database server: data crossing
    into it loses its in-runtime policy annotations, exactly like data sent
    to a real MySQL would.  Policies survive the round trip only when a
    statement runs with the SQL channel's policy cells
    (:class:`repro.channels.sqlchan.PolicyCells`), which store what each
    written value carries beside it — the paper's persistent-policy
    mechanism.
    """
    return strip_policies(value)


class StoredCells:
    """How a statement reads and writes cells; by default, as stored.

    :meth:`repro.sql.engine.Engine.run` takes another implementation as
    ``cells`` (the SQL channel's policy cells), so the executor never learns
    how policies are stored."""

    def viewer(self, table, exprs):
        """A function from a stored row to the row ``exprs`` evaluate over
        (applied to the rows WHERE, ORDER BY, DISTINCT and LIMIT keep), or
        ``None`` for the stored row itself."""
        return None

    def store(self, table, row, column: str, value) -> None:
        """Write the evaluated ``value`` into ``row[column]``."""
        row[column] = stored_value(value)

    def columns(self, table) -> List[str]:
        """The columns ``*`` expands to."""
        return table.column_names


#: The cells :meth:`repro.sql.engine.Engine.run` uses by default.
STORED = StoredCells()


def coerce_pair(left, right):
    """Coerce operands for comparison (numeric strings compare numerically
    with numbers, everything else compares as strings)."""
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left, right
    if isinstance(left, (int, float)) or isinstance(right, (int, float)):
        try:
            return float(left), float(right)
        except (TypeError, ValueError):
            return str(left), str(right)
    return str(left), str(right)


def sql_equal(left, right) -> bool:
    if left is None or right is None:
        return False
    left, right = coerce_pair(left, right)
    return left == right


@lru_cache(maxsize=512)
def _like_regex(pattern: str):
    """Compile a SQL LIKE pattern by translating it character-by-character:
    ``%`` → ``.*``, ``_`` → ``.``, everything else escaped literally.

    Escaping each literal character individually (instead of
    ``re.escape``-then-``replace``, which mangles patterns on Python
    versions where ``re.escape`` escapes ``%``/``_``) makes metacharacters
    like ``.``, ``+`` or ``\\`` in the pattern inert — ``'50%+'`` matches
    ``50 anything +``, not a regex repetition.  DOTALL lets the wildcards
    cross newlines, as SQL LIKE does.
    """
    parts = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("".join(parts), re.IGNORECASE | re.DOTALL)


def sql_like(value, pattern) -> bool:
    if value is None or pattern is None:
        return False
    return _like_regex(str(pattern)).fullmatch(str(value)) is not None


def sort_key(value):
    """Total ordering across NULLs, numbers and strings.

    NaN is mapped to ``-inf`` so ``sorted`` sees a consistent total order
    (a raw NaN key makes comparison-based sorting ill-defined); ties are
    broken by the sort's stability, so the ordering stays deterministic.
    """
    if value is None:
        return (0, "", 0.0)
    if isinstance(value, (int, float)):
        key = float(value)
        if key != key:
            key = float("-inf")
        return (1, "", key)
    return (2, str(value), 0.0)


# -- expression evaluation ------------------------------------------------------


def evaluate(expr: nodes.Expr, row: Optional[Dict[str, Any]], table) -> Any:
    """Evaluate ``expr`` against ``row`` (a dict) of ``table`` (an engine
    Table, used only to distinguish unknown columns from NULL cells)."""
    if isinstance(expr, nodes.Literal):
        return expr.value
    if isinstance(expr, nodes.Param):
        raise SQLError(f"unbound parameter :{expr.name}")
    if isinstance(expr, nodes.ColumnRef):
        if row is None:
            raise SQLError(f"column {expr.name!r} is not allowed in this context")
        if expr.name in row:
            return row[expr.name]
        if table is not None and not table.has_column(expr.name):
            raise SQLError(f"no such column: {expr.name}")
        return None
    if isinstance(expr, nodes.UnaryOp):
        value = evaluate(expr.operand, row, table)
        if expr.op == "not":
            return not bool(value)
        raise SQLError(f"unsupported unary operator {expr.op}")
    if isinstance(expr, nodes.BinaryOp):
        return _binary(expr, row, table)
    if isinstance(expr, nodes.InList):
        value = evaluate(expr.operand, row, table)
        members = [evaluate(item, row, table) for item in expr.items]
        found = any(sql_equal(value, member) for member in members)
        return (not found) if expr.negated else found
    if isinstance(expr, nodes.IsNull):
        value = evaluate(expr.operand, row, table)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, nodes.FuncCall):
        return _scalar_function(expr, row, table)
    if isinstance(expr, nodes.Star):
        raise SQLError("'*' is not allowed in this context")
    raise SQLError(f"cannot evaluate {type(expr).__name__}")


#: The ordering comparisons, applied after ``coerce_pair``.
_ORDERINGS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _binary(expr: nodes.BinaryOp, row, table) -> Any:
    op = expr.op
    if op == "and":
        return bool(evaluate(expr.left, row, table)) and bool(
            evaluate(expr.right, row, table)
        )
    if op == "or":
        return bool(evaluate(expr.left, row, table)) or bool(
            evaluate(expr.right, row, table)
        )
    left = evaluate(expr.left, row, table)
    right = evaluate(expr.right, row, table)
    if op == "=":
        return sql_equal(left, right)
    if op == "!=":
        return not sql_equal(left, right)
    if op == "like":
        return sql_like(left, right)
    # Check the operator before the NULL test, so an unsupported one fails
    # whatever the row holds.
    compare = _ORDERINGS.get(op)
    if compare is None:
        raise SQLError(f"unsupported operator {op!r}")
    if left is None or right is None:
        return False
    return compare(*coerce_pair(left, right))


def _scalar_function(expr: nodes.FuncCall, row, table) -> Any:
    args = [evaluate(arg, row, table) for arg in expr.args]
    name = expr.name
    if name == "lower":
        return None if args[0] is None else _text(args[0]).lower()
    if name == "upper":
        return None if args[0] is None else _text(args[0]).upper()
    if name == "length":
        return None if args[0] is None else _length(args[0])
    if name in ("count", "min", "max", "sum", "avg"):
        raise SQLError(f"aggregate {name}() not allowed in this context")
    raise SQLError(f"unknown function {name!r}")


def _text(value) -> str:
    """``value`` as text with its policies (a number's spread over it)."""
    return value if isinstance(value, str) else to_tainted_str(value)


def _length(value):
    """An int carrying every policy of ``value``."""
    policies = policies_of(value)
    length = len(_text(value))
    return TaintedInt(length, policies) if policies else length


def _sum(values: List[Any]):
    """SUM over numbers, carrying the merge of their policies."""
    if not all(isinstance(value, (int, float)) for value in values):
        raise SQLError("sum() and avg() take numbers only")
    total = sum(map(stored_value, values))
    policies = merge_values(*values)
    if not policies:
        return total
    return (TaintedFloat if isinstance(total, float) else TaintedInt)(total, policies)


def evaluate_aggregate(expr: nodes.Expr, rows: List[Dict[str, Any]], table) -> Any:
    if isinstance(expr, nodes.FuncCall):
        name = expr.name
        if name == "count":
            if expr.star or not expr.args:
                return len(rows)
            values = [evaluate(expr.args[0], row, table) for row in rows]
            return sum(1 for v in values if v is not None)
        if name in ("min", "max", "sum", "avg"):
            values = [evaluate(expr.args[0], row, table) for row in rows]
            values = [v for v in values if v is not None]
            if not values:
                return None
            # MIN and MAX return the value they chose, policies and all, in
            # ORDER BY's total order.
            if name == "min":
                return min(values, key=sort_key)
            if name == "max":
                return max(values, key=sort_key)
            if name == "sum":
                return _sum(values)
            return _sum(values) / len(values)
    # Non-aggregate expression in an aggregate query: evaluate against the
    # first matching row (MySQL-ish permissiveness).
    return evaluate(expr, rows[0] if rows else {}, table)


# -- plan execution -------------------------------------------------------------

Pair = Tuple[int, Dict[str, Any]]


def _project(items, row: Dict[str, Any], table, star: List[str]) -> List[Any]:
    """One row's values of the SELECT ``items``; ``*`` expands to ``star``."""
    values: List[Any] = []
    for item in items:
        if isinstance(item.expr, nodes.Star):
            values.extend(row[name] for name in star)
        else:
            values.append(evaluate(item.expr, row, table))
    return values


class Executor:
    """Runs plan trees against an engine's tables.

    The engine is duck-typed: the executor needs ``engine.table(name)``
    returning an object with ``rows``, ``column_names``, ``has_column`` and
    ``indexes``.  Locking and durability stay with the caller — the engine
    invokes the executor with the statement's table locks already held.
    """

    def __init__(self, engine):
        self.engine = engine

    # -- SELECT plans ------------------------------------------------------

    def execute(self, plan: Plan, cells: StoredCells = STORED):
        """Execute a SELECT-shaped plan, returning an engine ``Result``; the
        SELECT items evaluate over the rows ``cells`` views."""
        if isinstance(plan, ScalarSelect):
            columns = [item.output_name for item in plan.items]
            values = [evaluate(item.expr, {}, None) for item in plan.items]
            return Result(columns, [values])
        if not isinstance(plan, (Aggregate, Project)):
            raise SQLError(f"cannot execute plan {type(plan).__name__}")

        table = self.engine.table(plan.table)
        rows = [row for _, row in self.collect(plan.children[0], cells)]
        view = cells.viewer(table, plan.items)
        if view is not None:
            rows = [view(row) for row in rows]
        if isinstance(plan, Aggregate):
            columns = [item.output_name for item in plan.items]
            values = [
                evaluate_aggregate(item.expr, rows, table) for item in plan.items
            ]
            return Result(columns, [values])

        star = cells.columns(table)
        columns = []
        for item in plan.items:
            if isinstance(item.expr, nodes.Star):
                columns.extend(star)
            else:
                columns.append(item.output_name)
        return Result(columns, [_project(plan.items, row, table, star) for row in rows])

    # -- row streams -------------------------------------------------------

    def collect(self, plan: Plan, cells: StoredCells = STORED) -> List[Pair]:
        """Materialize a row stream, applying Sort/Distinct/Slice stages."""
        if isinstance(plan, Sort):
            pairs = self.collect(plan.children[0], cells)
            table = self.engine.table(plan.table)
            for ordering in reversed(plan.order_by):
                pairs = sorted(
                    pairs,
                    key=lambda pair: sort_key(
                        evaluate(ordering.expr, pair[1], table)
                    ),
                    reverse=ordering.descending,
                )
            return pairs
        if isinstance(plan, Distinct):
            table = self.engine.table(plan.table)
            star = cells.columns(table)
            seen = set()
            kept: List[Pair] = []
            for pair in self.collect(plan.children[0], cells):
                values = _project(plan.items, pair[1], table, star)
                key = tuple(str(value) for value in values)
                if key not in seen:
                    seen.add(key)
                    kept.append(pair)
            return kept
        if isinstance(plan, Slice):
            pairs = self.collect(plan.children[0], cells)
            if plan.offset:
                pairs = pairs[plan.offset:]
            if plan.limit is not None:
                pairs = pairs[: plan.limit]
            return pairs
        return list(self.scan(plan))

    def scan(self, plan: Plan) -> Iterator[Pair]:
        """Yield ``(position, row)`` pairs in ascending position order."""
        if isinstance(plan, Filter):
            child = plan.children[0]
            table = self.engine.table(child.table)
            predicate = plan.predicate
            for pair in self.scan(child):
                if bool(evaluate(predicate, pair[1], table)):
                    yield pair
            return
        if isinstance(plan, SeqScan):
            table = self.engine.table(plan.table)
            yield from enumerate(table.rows)
            return
        if isinstance(plan, IndexLookup):
            table = self.engine.table(plan.table)
            index = table.indexes.get(plan.index)
            if index is None:
                # The index vanished between planning and execution (plans
                # can be re-run); degrade to a full scan — the Filter above
                # keeps the results identical.
                yield from enumerate(table.rows)
                return
            probes = [evaluate(probe, {}, None) for probe in plan.probes]
            rows = table.rows
            for position in index.lookup_eq(probes):
                yield position, rows[position]
            return
        if isinstance(plan, IndexRange):
            table = self.engine.table(plan.table)
            index = table.indexes.get(plan.index)
            if index is None or index.kind != "sorted":
                yield from enumerate(table.rows)
                return
            lo = UNBOUNDED if plan.lo is None else evaluate(plan.lo, {}, None)
            hi = UNBOUNDED if plan.hi is None else evaluate(plan.hi, {}, None)
            rows = table.rows
            for position in index.lookup_range(lo, hi):
                yield position, rows[position]
            return
        raise SQLError(f"cannot scan plan {type(plan).__name__}")
