"""Plan compiler and executor, and the semantics of SQL expressions.

This module owns the *semantics* of the SQL dialect: comparison coercion,
LIKE matching, NULL handling, sort keys, scalar and aggregate functions.
:meth:`Executor.compile` turns a plan tree from :mod:`repro.sql.planner`
into closures over those helpers, once: each expression becomes a function
of the row it reads and the execution's *arguments* (the values of the
statement's slots, then of its parameters), and the plan a function of its
table, the arguments and the cells.  :meth:`Executor.execute` runs one.
:func:`evaluate` compiles one expression and calls it; the naive
full-scan oracle of the plan-vs-naive differential tests calls it, so the
two paths can only differ in *which rows they visit*, never in how a
visited row is judged.

Scans produce row positions in ascending order, so index-driven scans visit
rows in exactly the storage order a sequential scan would, and
UPDATE/DELETE plans collect positions before mutating.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

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
    AGGREGATES,
    Aggregate,
    DeletePlan,
    Distinct,
    Filter,
    IndexLookup,
    IndexRange,
    InsertPlan,
    Plan,
    Project,
    ScalarSelect,
    SeqScan,
    Slice,
    Sort,
    UpdatePlan,
    bind_parameters,
    walk,
)

__all__ = [
    "Compiled",
    "Executor",
    "Result",
    "Row",
    "StoredCells",
    "STORED",
    "UNBOUND",
    "compile_expr",
    "evaluate",
    "evaluate_aggregate",
    "stored_value",
    "sql_equal",
    "sql_like",
    "coerce_pair",
    "sort_key",
]


# -- results --------------------------------------------------------------------


class Row(dict):
    """A result row: a dict that also supports positional access.

    ``columns`` is kept, not copied: the rows of one :class:`Result` share
    its column list.
    """

    def __init__(self, columns: Sequence[str], values: Sequence[Any]):
        super().__init__(zip(columns, values))
        self.columns = columns

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
        ``None`` for the stored row itself.  An engine asks once per
        compiled plan and keeps the answer with the plan."""
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


# -- semantic helpers -----------------------------------------------------------


def _unequal(left, right) -> bool:
    return not sql_equal(left, right)


def _ordering(compare):
    """The ordering comparison ``compare``, applied after ``coerce_pair``;
    false when either side is NULL."""

    def ordering(left, right) -> bool:
        if left is None or right is None:
            return False
        return compare(*coerce_pair(left, right))

    return ordering


#: The binary comparisons, by operator.
_COMPARISONS = {
    "=": sql_equal,
    "!=": _unequal,
    "like": sql_like,
    "<": _ordering(operator.lt),
    "<=": _ordering(operator.le),
    ">": _ordering(operator.gt),
    ">=": _ordering(operator.ge),
}


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


#: The scalar functions, over their first argument.
_SCALARS = {
    "lower": lambda value: None if value is None else _text(value).lower(),
    "upper": lambda value: None if value is None else _text(value).upper(),
    "length": lambda value: None if value is None else _length(value),
}

#: The aggregates of one argument, over its non-NULL values.  MIN and MAX
#: return the value they chose, policies and all, in ORDER BY's total order.
_FOLDS = {
    "count": len,
    "min": lambda values: min(values, key=sort_key, default=None),
    "max": lambda values: max(values, key=sort_key, default=None),
    "sum": lambda values: _sum(values) if values else None,
    "avg": lambda values: _sum(values) / len(values) if values else None,
}


# -- compiled expressions -------------------------------------------------------
# An expression compiles to a function of ``(row, args)``: ``row`` is the
# dict it reads (None where no row is allowed, in INSERT's VALUES) and
# ``args`` the execution's arguments.  ``columns`` is the table's live list
# of column names (None without a table: a column it lacks reads as NULL),
# and ``params`` maps each parameter name to its index in ``args``.  What a
# statement rejects, a compiled function raises when it is called, where the
# rows being evaluated decide it, never at compile time.

#: The argument of a parameter an execution did not bind.
UNBOUND = object()

CompiledExpr = Callable[[Optional[Dict[str, Any]], Sequence[Any]], Any]


def compile_expr(
    expr: nodes.Expr, columns: Optional[List[str]], params: Dict[str, int]
) -> CompiledExpr:
    """``expr`` as a function of ``(row, args)``."""
    compile = _COMPILERS.get(type(expr))
    if compile is None:
        return _failing(f"cannot evaluate {type(expr).__name__}")
    return compile(expr, columns, params)


def _failing(message: str, *operands: CompiledExpr) -> CompiledExpr:
    """A function that evaluates ``operands``, then raises ``message``."""

    def fail(row, args):
        for operand in operands:
            operand(row, args)
        raise SQLError(message)

    return fail


def _literal(expr: nodes.Literal, columns, params) -> CompiledExpr:
    value = expr.value

    def literal(row, args):
        return value

    return literal


def _slot(expr: nodes.Slot, columns, params) -> CompiledExpr:
    index = expr.index

    def slot(row, args):
        return args[index]

    return slot


def _param(expr: nodes.Param, columns, params) -> CompiledExpr:
    message = f"unbound parameter :{expr.name}"
    index = params.get(expr.name)
    if index is None:
        return _failing(message)

    def param(row, args):
        value = args[index]
        if value is UNBOUND:
            raise SQLError(message)
        return value

    return param


def _column(expr: nodes.ColumnRef, columns, params) -> CompiledExpr:
    name = expr.name

    def column(row, args):
        try:
            return row[name]
        except (KeyError, TypeError):
            pass
        if row is None:
            raise SQLError(f"column {name!r} is not allowed in this context")
        if columns is None or name in columns:
            return None
        raise SQLError(f"no such column: {name}")

    return column


def _star(expr: nodes.Star, columns, params) -> CompiledExpr:
    return _failing("'*' is not allowed in this context")


def _unary(expr: nodes.UnaryOp, columns, params) -> CompiledExpr:
    operand = compile_expr(expr.operand, columns, params)
    if expr.op != "not":
        return _failing(f"unsupported unary operator {expr.op}", operand)

    def negation(row, args):
        return not operand(row, args)

    return negation


def _binary(expr: nodes.BinaryOp, columns, params) -> CompiledExpr:
    if expr.op == "and" or expr.op == "or":
        return _chain(expr, columns, params)
    left = compile_expr(expr.left, columns, params)
    right = compile_expr(expr.right, columns, params)
    compare = _COMPARISONS.get(expr.op)
    if compare is None:
        # An unsupported operator fails whatever the row holds.
        return _failing(f"unsupported operator {expr.op!r}", left, right)

    def binary(row, args):
        return compare(left(row, args), right(row, args))

    return binary


def _chain(expr: nodes.BinaryOp, columns, params) -> CompiledExpr:
    """An AND or OR chain as one loop over its terms, left to right, that
    stops at the first term deciding it (the parser nests a chain one level
    per term, so it is walked, not recursed)."""
    terms = []
    node = expr
    while type(node) is nodes.BinaryOp and node.op == expr.op:
        terms.append(node.right)
        node = node.left
    terms.append(node)
    tests = [compile_expr(term, columns, params) for term in reversed(terms)]
    # OR stops at the first true term, AND at the first false one.
    stop = expr.op == "or"

    def chain(row, args):
        for test in tests:
            if bool(test(row, args)) is stop:
                return stop
        return not stop

    return chain


def _in_list(expr: nodes.InList, columns, params) -> CompiledExpr:
    operand = compile_expr(expr.operand, columns, params)
    items = [compile_expr(item, columns, params) for item in expr.items]
    negated = expr.negated

    def member(row, args):
        value = operand(row, args)
        members = [item(row, args) for item in items]
        found = any(sql_equal(value, other) for other in members)
        return (not found) if negated else found

    return member


def _is_null(expr: nodes.IsNull, columns, params) -> CompiledExpr:
    operand = compile_expr(expr.operand, columns, params)
    negated = expr.negated

    def is_null(row, args):
        return (operand(row, args) is None) is not negated

    return is_null


def _call(expr: nodes.FuncCall, columns, params) -> CompiledExpr:
    arguments = [compile_expr(arg, columns, params) for arg in expr.args]
    name = expr.name
    function = _SCALARS.get(name)
    if function is None:
        if name in AGGREGATES:
            message = f"aggregate {name}() not allowed in this context"
        else:
            message = f"unknown function {name!r}"
        return _failing(message, *arguments)

    def call(row, args):
        return function([argument(row, args) for argument in arguments][0])

    return call


_COMPILERS = {
    nodes.Literal: _literal,
    nodes.Slot: _slot,
    nodes.Param: _param,
    nodes.ColumnRef: _column,
    nodes.Star: _star,
    nodes.UnaryOp: _unary,
    nodes.BinaryOp: _binary,
    nodes.InList: _in_list,
    nodes.IsNull: _is_null,
    nodes.FuncCall: _call,
}


def compile_aggregate(
    expr: nodes.Expr, columns: Optional[List[str]], params: Dict[str, int]
):
    """``expr``, an item of an aggregate query, as a function of ``(rows,
    args)``."""
    if type(expr) is not nodes.FuncCall or expr.name not in AGGREGATES:
        return _first_row(compile_expr(expr, columns, params))
    arguments = [compile_expr(arg, columns, params) for arg in expr.args]
    if expr.name == "count" and (expr.star or not arguments):
        return _count_rows
    fold = _FOLDS[expr.name]

    def aggregate(rows, args):
        values = [arguments[0](row, args) for row in rows]
        return fold([value for value in values if value is not None])

    return aggregate


def _count_rows(rows, args) -> int:
    return len(rows)


def _first_row(scalar: CompiledExpr):
    """A non-aggregate item of an aggregate query: evaluated against the
    first matching row (MySQL-ish permissiveness)."""

    def first(rows, args):
        return scalar(rows[0] if rows else {}, args)

    return first


def _columns_of(table) -> Optional[List[str]]:
    return None if table is None else table.column_names


def evaluate(expr: nodes.Expr, row: Optional[Dict[str, Any]], table) -> Any:
    """Evaluate ``expr`` against ``row`` (a dict) of ``table`` (an engine
    Table, used only to distinguish unknown columns from NULL cells), once:
    the compiled form of ``expr``, called."""
    return compile_expr(expr, _columns_of(table), {})(row, ())


def evaluate_aggregate(expr: nodes.Expr, rows: List[Dict[str, Any]], table) -> Any:
    """Evaluate the aggregate query item ``expr`` over ``rows``, once."""
    return compile_aggregate(expr, _columns_of(table), {})(rows, ())


# -- compiled plans -------------------------------------------------------------
# A plan below a SELECT's projection, or a write's row source, compiles to a
# function of ``(table, args, cells)`` giving the positions of the rows it
# keeps, in order; a statement's plan to ``run(table, args, cells, view)``
# giving its result.


def _item(item: nodes.SelectItem, columns, params) -> Optional[CompiledExpr]:
    if type(item.expr) is nodes.Star:
        return None
    return compile_expr(item.expr, columns, params)


def _items(items: Sequence[nodes.SelectItem], columns, params):
    """``(project, star)``: ``project(row, args, expanded)`` is one row's
    values of the SELECT ``items``, ``*`` expanding to the columns
    ``expanded``, and ``star`` whether an item is ``*``."""
    values = [_item(item, columns, params) for item in items]
    star = None in values

    def project(row, args, expanded):
        if not star:
            return [value(row, args) for value in values]
        projected = []
        for value in values:
            if value is None:
                projected.extend([row[name] for name in expanded])
            else:
                projected.append(value(row, args))
        return projected

    return project, star


def _names(items: Sequence[nodes.SelectItem], params: Dict[str, int]):
    """``names(args, expanded)``: the output columns of ``items``, ``*``
    expanding to ``expanded``.  An unnamed expression item is named by its
    SQL text, so one that holds a slot or parameter is named per execution,
    with the values bound."""
    parts: list = []
    fixed = True
    for item in items:
        expr = item.expr
        if type(expr) is nodes.Star:
            parts.append(None)
            fixed = False
        elif item.alias or type(expr) is nodes.ColumnRef or not _binds(expr):
            parts.append(item.output_name)
        else:
            parts.append(expr)
            fixed = False
    if fixed:
        return lambda args, expanded: parts

    def names(args, expanded):
        named = []
        for part in parts:
            if part is None:
                named.extend(expanded)
            elif type(part) is str:
                named.append(part)
            else:
                bindings: Dict[Any, Any] = dict(enumerate(args))
                for name, index in params.items():
                    if args[index] is not UNBOUND:
                        bindings[name] = args[index]
                bound = bind_parameters(part, bindings)
                named.append(nodes.SelectItem(bound).output_name)
        return named

    return names


def _binds(expr: nodes.Expr) -> bool:
    """Whether ``expr`` holds a slot or a parameter."""
    return any(type(node) in (nodes.Slot, nodes.Param) for node in walk(expr))


def _every_row(table, args) -> Iterable[int]:
    return range(len(table.rows))


def _lookup(plan: IndexLookup, params):
    name = plan.index
    probes = [compile_expr(probe, None, params) for probe in plan.probes]

    def lookup(table, args):
        index = table.indexes.get(name)
        if index is None:
            return _every_row(table, args)
        return index.lookup_eq([probe(None, args) for probe in probes])

    return lookup


def _range(plan: IndexRange, params):
    name = plan.index
    lo = None if plan.lo is None else compile_expr(plan.lo, None, params)
    hi = None if plan.hi is None else compile_expr(plan.hi, None, params)

    def walk_range(table, args):
        index = table.indexes.get(name)
        if index is None or index.kind != "sorted":
            return _every_row(table, args)
        return index.lookup_range(
            UNBOUNDED if lo is None else lo(None, args),
            UNBOUNDED if hi is None else hi(None, args),
        )

    return walk_range


def _access(plan: Plan, params):
    """``candidates(table, args)``: the ascending positions an access path
    reads.  An index that vanished from under the plan (a table's indexes
    changed outside the engine) degrades to a full scan; the ``Filter``
    above keeps the results identical."""
    if isinstance(plan, SeqScan):
        return _every_row
    if isinstance(plan, IndexLookup):
        return _lookup(plan, params)
    if isinstance(plan, IndexRange):
        return _range(plan, params)
    raise SQLError(f"cannot scan plan {type(plan).__name__}")


def _scan(plan: Plan, columns, params):
    """The positions of the rows an access path, or a ``Filter`` over one,
    keeps."""
    if not isinstance(plan, Filter):
        candidates = _access(plan, params)
        return lambda table, args, cells: list(candidates(table, args))
    candidates = _access(plan.children[0], params)
    test = compile_expr(plan.predicate, columns, params)

    def scan(table, args, cells):
        rows = table.rows
        return [
            position
            for position in candidates(table, args)
            if test(rows[position], args)
        ]

    return scan


def _sort(plan: Sort, columns, params):
    child = _positions(plan.children[0], columns, params)
    keys = [
        (compile_expr(ordering.expr, columns, params), ordering.descending)
        for ordering in reversed(plan.order_by)
    ]

    def sort(table, args, cells):
        positions = child(table, args, cells)
        rows = table.rows
        for key, descending in keys:
            positions = sorted(
                positions,
                key=lambda position: sort_key(key(rows[position], args)),
                reverse=descending,
            )
        return positions

    return sort


def _distinct(plan: Distinct, columns, params):
    child = _positions(plan.children[0], columns, params)
    project, _ = _items(plan.items, columns, params)

    def distinct(table, args, cells):
        expanded = cells.columns(table)
        rows = table.rows
        seen = set()
        kept = []
        for position in child(table, args, cells):
            values = project(rows[position], args, expanded)
            key = tuple([str(value) for value in values])
            if key not in seen:
                seen.add(key)
                kept.append(position)
        return kept

    return distinct


def _slice(plan: Slice, columns, params):
    child = _positions(plan.children[0], columns, params)
    limit, offset = plan.limit, plan.offset

    def cut(table, args, cells):
        positions = child(table, args, cells)
        if offset:
            positions = positions[offset:]
        if limit is not None:
            positions = positions[:limit]
        return positions

    return cut


#: The stages of a SELECT's plan below its projection, by plan node.
_STAGES = {Sort: _sort, Distinct: _distinct, Slice: _slice}


def _positions(plan: Plan, columns, params):
    """The positions of the rows a SELECT's plan below its projection keeps,
    in order."""
    return _STAGES.get(type(plan), _scan)(plan, columns, params)


def _viewed(table, positions, view) -> list:
    """The rows at ``positions``, each through ``view`` unless it is None."""
    rows = table.rows
    if view is None:
        return [rows[position] for position in positions]
    return [view(rows[position]) for position in positions]


class Compiled:
    """A statement's plan compiled for one state of its table's catalog.

    ``stamp`` is the table's :attr:`~repro.sql.engine.Table.stamp` when it
    was compiled (None without a table), ``params`` the parameter names
    whose values follow the slots' in the arguments, ``reads`` the
    expressions whose rows a view attaches policies to (None for a
    statement that reads no viewed row), ``views`` the view of each cells
    it ran with, and ``run(table, args, cells, view)`` the statement.  It
    holds no slot value: those are the arguments of each execution."""

    __slots__ = ("stamp", "params", "reads", "views", "run")

    def __init__(self, stamp, params, reads, run):
        self.stamp = stamp
        self.params = params
        self.reads = reads
        self.views: Dict[Any, Any] = {}
        self.run = run


#: ``Compiled.views`` holds no view for these cells yet.
_NO_VIEW = object()


class Executor:
    """Compiles plan trees against an engine's tables and runs them.

    The engine is duck-typed: the executor needs ``engine.durability``, and
    each table it runs on ``rows``, ``column_names``, ``indexes``, ``stamp``
    and the appliers of :class:`repro.sql.engine.Table`.  Locking stays
    with the caller: the engine compiles and executes with the statement's
    table lock held, inside its durable scope for a write.
    """

    def __init__(self, engine):
        self.engine = engine

    def compile(self, plan: Plan, table, params: Dict[str, int]) -> Compiled:
        """``plan``, of a SELECT, INSERT, UPDATE or DELETE on ``table``
        (None for a SELECT without FROM), compiled; ``params`` maps each
        parameter name to its index in the arguments."""
        columns = stamp = None
        if table is not None:
            columns, stamp = table.column_names, table.stamp
        if isinstance(plan, ScalarSelect):
            run, reads = self._scalar(plan, params), None
        elif isinstance(plan, Aggregate):
            run, reads = self._aggregate(plan, columns, params), plan.items
        elif isinstance(plan, Project):
            run, reads = self._project(plan, columns, params), plan.items
        elif isinstance(plan, InsertPlan):
            run, reads = self._insert(plan.statement, columns, params), None
        elif isinstance(plan, UpdatePlan):
            run = self._update(plan, columns, params)
            reads = [expr for _, expr in plan.statement.assignments]
        elif isinstance(plan, DeletePlan):
            run, reads = self._delete(plan, columns, params), None
        else:
            raise SQLError(f"cannot execute plan {type(plan).__name__}")
        return Compiled(stamp, tuple(params), reads, run)

    def execute(
        self,
        plan: Compiled,
        table,
        args: Sequence[Any] = (),
        cells: StoredCells = STORED,
    ) -> Result:
        """Run the compiled ``plan`` on ``table`` with ``args``; its
        expressions read the rows ``cells`` views (a view is built once per
        plan and cells) and its writes store through ``cells``."""
        view = None
        if plan.reads is not None:
            view = plan.views.get(cells, _NO_VIEW)
            if view is _NO_VIEW:
                view = plan.views[cells] = cells.viewer(table, plan.reads)
        return plan.run(table, args, cells, view)

    def _log(self, table, op: str, **payload: Any) -> None:
        self.engine.durability.log(table.rows_record(op, **payload))

    # -- SELECT ------------------------------------------------------------

    def _scalar(self, plan: ScalarSelect, params):
        values = [compile_expr(item.expr, None, params) for item in plan.items]
        names = _names(plan.items, params)

        def scalar(table, args, cells, view):
            row = [value({}, args) for value in values]
            return Result(names(args, None), [row])

        return scalar

    def _aggregate(self, plan: Aggregate, columns, params):
        source = _positions(plan.children[0], columns, params)
        folds = [compile_aggregate(item.expr, columns, params) for item in plan.items]
        names = _names(plan.items, params)

        def aggregate(table, args, cells, view):
            rows = _viewed(table, source(table, args, cells), view)
            values = [fold(rows, args) for fold in folds]
            return Result(names(args, None), [values])

        return aggregate

    def _project(self, plan: Project, columns, params):
        source = _positions(plan.children[0], columns, params)
        project, star = _items(plan.items, columns, params)
        names = _names(plan.items, params)

        def select(table, args, cells, view):
            rows = _viewed(table, source(table, args, cells), view)
            # What ``*`` expands to, asked only if an item is ``*``.
            expanded = cells.columns(table) if star else None
            projected = [project(row, args, expanded) for row in rows]
            return Result(names(args, expanded), projected)

        return select

    # -- writes ------------------------------------------------------------

    def _insert(self, statement: nodes.Insert, columns, params):
        targets = statement.columns
        missing = [column for column in targets if column not in columns]
        rows = [
            [compile_expr(expr, columns, params) for expr in row]
            for row in statement.rows
        ]

        def insert(table, args, cells, view):
            if missing:
                raise SQLError(f"table {table.name} has no column {missing[0]!r}")
            store = cells.store
            new_rows: List[Dict[str, Any]] = []
            for values in rows:
                row = dict.fromkeys(table.column_names)
                for column, value in zip(targets, values):
                    store(table, row, column, value(None, args))
                new_rows.append(row)
            table.append_rows(new_rows)
            if new_rows and self.engine.durability is not None:
                self._log(table, "sql.insert", rows=table.encode_rows(new_rows))
            return Result(rowcount=len(new_rows))

        return insert

    def _update(self, plan: UpdatePlan, columns, params):
        targets = [column for column, _ in plan.statement.assignments]
        missing = [column for column in targets if column not in columns]
        scan = _scan(plan.source, columns, params)
        assignments = [
            (column, compile_expr(expr, columns, params))
            for column, expr in plan.statement.assignments
        ]

        def update(table, args, cells, view):
            if missing:
                raise SQLError(f"table {table.name} has no column {missing[0]!r}")
            # Collect matching positions through the planned (possibly
            # index-driven) scan, then mutate.  Each row's match depends
            # only on its own pre-update values, so collect-then-mutate is
            # equivalent to mutating as the scan goes.
            touched = scan(table, args, cells)
            store = cells.store
            rows = table.rows
            for position in touched:
                row = rows[position]
                # Assignments apply in order: each one reads the values (and
                # the policies, in a viewed row) the ones before it wrote.
                viewed = row if view is None else view(row)
                for column, compute in assignments:
                    value = compute(viewed, args)
                    store(table, row, column, value)
                    if viewed is not row:
                        viewed[column] = value
            if touched:
                table.rebuild_indexes(targets)
            if touched and self.engine.durability is not None:
                # Full row images, not expressions: replay is exact
                # regardless of what the SET expressions computed from.
                images = table.encode_rows(rows[index] for index in touched)
                updates = [[index, image] for index, image in zip(touched, images)]
                self._log(table, "sql.update", updates=updates)
            return Result(rowcount=len(touched))

        return update

    def _delete(self, plan: DeletePlan, columns, params):
        scan = _scan(plan.source, columns, params)

        def delete(table, args, cells, view):
            doomed = scan(table, args, cells)
            if doomed:
                table.delete_rows(doomed)
            if doomed and self.engine.durability is not None:
                self._log(table, "sql.delete", indices=doomed)
            return Result(rowcount=len(doomed))

        return delete
