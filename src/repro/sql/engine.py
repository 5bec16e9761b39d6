"""In-memory SQL engine.

Executes the statements of :mod:`repro.sql.parser` against in-memory
tables.  The engine itself is policy-agnostic: by default expressions read
the stored cells and a write stores the plain value.  :meth:`Engine.run`
takes the *cells* a statement reads and writes through
(:class:`~repro.sql.executor.StoredCells`); the SQL channel passes its
policy cells (:class:`repro.channels.sqlchan.PolicyCells`), which keep the
paper's policy columns (Figure 4) beside the data.

A SELECT, INSERT, UPDATE or DELETE is planned and compiled once per
prepared statement (:class:`~repro.sql.parser.Template`) and engine, and
each execution binds only its slot values and parameters.  The compiled
plan keeps the catalog stamp of its table (:attr:`Table.stamp`), which
every change to the table's indexes or columns, and every CREATE TABLE,
renews: an execution under the statement's table lock compares the
stamps, and plans again when they differ.  A statement that keeps no
template, or arrives parsed, is planned and compiled for its one run.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.exceptions import SQLError
from ..core.locking import OrderedLockRegistry, durable
from . import nodes
from .executor import STORED, UNBOUND, Compiled, Executor, Result, StoredCells
from .indexes import SecondaryIndex
from .parser import Template, parse, prepare
from .planner import Planner, bind_parameters

#: Catalog stamps, unique in the process, so a table made by DROP and
#: CREATE never has the stamp of the table it replaced.
_STAMPS = itertools.count(1)

#: Bound on an engine's compiled plans, which are cleared, not evicted, when
#: full (like the parser's template memo).
_PLAN_LIMIT = 1024

#: The writes an engine compiles a plan for (as it does for SELECT).
_WRITES = (nodes.Insert, nodes.Update, nodes.Delete)


class Table:
    """One table: column definitions plus a list of row dicts."""

    def __init__(self, name: str, columns: Sequence[nodes.ColumnDef]):
        self.name = name
        self.columns = list(columns)
        self.column_names = [c.name for c in self.columns]
        self.rows: List[Dict[str, Any]] = []
        #: Secondary indexes by name, kept current by the appliers below
        #: (inside this table's lock scope on the live path).
        self.indexes: Dict[str, SecondaryIndex] = {}
        #: The catalog stamp: renewed by every change to the columns or the
        #: indexes, so a compiled plan can tell it was planned for another
        #: catalog.
        self.stamp = next(_STAMPS)

    def has_column(self, name: str) -> bool:
        return name in self.column_names

    def add_column(self, column: nodes.ColumnDef) -> None:
        if self.has_column(column.name):
            return
        self.columns.append(column)
        self.column_names.append(column.name)
        for row in self.rows:
            row.setdefault(column.name, None)
        self.stamp = next(_STAMPS)

    # -- appliers ----------------------------------------------------------------
    # The one way rows and indexes change: the engine's statements and WAL
    # replay both call these.

    def append_rows(self, rows: List[Dict[str, Any]]) -> None:
        """Append ``rows``; they enter every index incrementally (positions
        only grow on insert)."""
        first = len(self.rows)
        self.rows.extend(rows)
        for index in self.indexes.values():
            for offset, row in enumerate(rows):
                index.add_row(first + offset, row)

    def delete_rows(self, positions: Iterable[int]) -> None:
        """Delete the rows at ``positions``.  Deleting compacts row
        positions, so every index renumbers; the rebuild is the same O(n)
        as the delete itself."""
        doomed = set(positions)
        self.rows = [
            row for position, row in enumerate(self.rows) if position not in doomed
        ]
        self.rebuild_indexes()

    def rebuild_indexes(self, columns: Optional[Iterable[str]] = None) -> None:
        """Rebuild the indexes over ``columns`` (every index when ``None``)
        after rows changed in place."""
        wanted = None if columns is None else set(columns)
        for index in self.indexes.values():
            if wanted is None or index.column in wanted:
                index.rebuild(self.rows)

    def add_index(self, name: str, column: str, kind: str) -> SecondaryIndex:
        """Build the index ``name`` over ``column`` from the current rows and
        register it."""
        index = SecondaryIndex(name, self.name, column, kind)
        index.rebuild(self.rows)
        self.indexes[name] = index
        self.stamp = next(_STAMPS)
        return index

    def drop_index(self, name: str) -> None:
        """Forget the index ``name``, if the table has it."""
        self.indexes.pop(name, None)
        self.stamp = next(_STAMPS)

    # -- WAL records -------------------------------------------------------------
    # Logged by the engine as it mutates, and by a checkpoint for the table.

    def create_record(self) -> Dict[str, Any]:
        """The ``sql.create`` record of this table's schema."""
        columns = [[c.name, c.type, list(c.constraints)] for c in self.columns]
        return {"op": "sql.create", "table": self.name, "columns": columns}

    def rows_record(self, op: str, **payload: Any) -> Dict[str, Any]:
        """A row-level record carrying the table's full column list of this
        moment, so replay materializes lazily-added policy columns exactly
        as the live path did."""
        columns = list(self.column_names)
        return {"op": op, "table": self.name, "columns": columns, **payload}

    def encode_rows(self, rows: Iterable[Dict[str, Any]]) -> List[List[Any]]:
        """Each row's cells in column order, encoded for the log."""
        # Imported per call, not per row: repro.storage imports this module.
        from ..storage.framing import encode_value

        names = self.column_names
        return [[encode_value(row[name]) for name in names] for row in rows]

    def index_record(self, index: SecondaryIndex) -> Dict[str, Any]:
        """The ``sql.create_index`` record of ``index``: its definition only,
        since recovery rebuilds the contents from the replayed rows."""
        return {
            "op": "sql.create_index",
            "table": self.name,
            "index": index.name,
            "column": index.column,
            "kind": index.kind,
        }


class Engine:
    """The in-memory database engine.

    The engine is shared by every request of an environment.  Locking is
    **per table**: each table name owns a reentrant lock
    (:meth:`table_lock`), so statements against independent tables execute
    concurrently and only statements touching the *same* table serialize.
    A short-lived :attr:`catalog_lock` guards the table directory itself
    (``CREATE`` / ``DROP`` and lock creation).

    Lock-ordering rule: multiple table locks are always acquired in
    sorted-name order (:meth:`locked` does this for you), and the catalog
    lock is *innermost* — taken last, held only across the directory
    mutation, and never while waiting for a table lock.  Following the rule
    everywhere makes deadlock impossible; :meth:`locked` is also how an
    application holds several statements' tables across a compound
    operation (``Database.transaction``).
    """

    def __init__(self):
        self.tables: Dict[str, Table] = {}
        #: Optional :class:`repro.storage.durability.Durability` sink.  When
        #: set, every mutation runs under the durability gate and logs its
        #: physical effect (row images, not statements) to the WAL.
        self.durability = None
        #: The shared ordered-lock machinery (same as the filesystem's
        #: per-subtree locks): one reentrant lock per table name,
        #: sorted-order multi-acquisition, fail-fast ordering violations.
        self._locking = OrderedLockRegistry(
            noun="table",
            error=SQLError,
            hint="name every table the compound operation touches in its "
            "outermost locked()/transaction() call",
        )
        #: Guards :attr:`tables` (the directory, not the rows) and the lock
        #: registry.  Short-lived and innermost: held only while
        #: creating/dropping a table or materializing a table lock, never
        #: across statement execution.
        self.catalog_lock = self._locking.registry_lock
        #: The planner/executor pair behind :meth:`run`.
        self.planner = Planner(self)
        self.executor = Executor(self)
        #: The compiled plan of each prepared statement run here.  Read
        #: without a lock and used under the statement's table lock, where
        #: its stamp is checked; an insert takes ``_plans_lock`` to bound the
        #: size.  A plan holds no slot value.
        self._plans: Dict[Template, Compiled] = {}
        self._plans_lock = threading.Lock()

    # -- locking ----------------------------------------------------------------

    def table_lock(self, name: str):
        """The lock serializing access to table ``name`` (created on demand,
        stable across DROP/CREATE of the same name)."""
        return self._locking.lock(str(name))

    @contextlib.contextmanager
    def locked(self, *names: str) -> Iterator["Engine"]:
        """Hold the locks of every table in ``names`` (sorted-name order).

        This is the engine's multi-table critical section: acquiring in
        deterministic order means two callers locking overlapping table sets
        can never deadlock.  Reentrant per thread, so statements executed
        inside the block re-acquire their table's lock harmlessly.

        Nested ``locked`` calls may only *add* tables that sort after every
        table already held (re-acquiring held tables is always fine) — a
        nested acquisition that sorts earlier would break the global
        ordering and could deadlock against another thread, so it raises
        :class:`~repro.core.exceptions.SQLError` immediately instead.  Name
        every table a compound operation touches in its outermost
        ``locked``/``transaction`` call.

        The engine's own statements, whose table names are strings already,
        enter the registry's context manager directly instead: one context
        manager per statement.
        """
        with self._locking.locked(*(str(name) for name in names)):
            yield self

    @staticmethod
    def statement_tables(statement) -> Tuple[str, ...]:
        """The table names ``statement`` touches (empty for table-less
        SELECTs).  The dialect is single-table, so this is () or a 1-tuple."""
        table = getattr(statement, "table", None)
        return () if table is None else (str(table),)

    # -- durability hooks --------------------------------------------------------

    def _log(self, record: Dict[str, Any]) -> None:
        sink = self.durability
        if sink is not None:
            sink.log(record)

    # -- public API -------------------------------------------------------------

    def run(self, statement, cells: StoredCells = STORED,
            values: Sequence[Any] = (),
            params: Optional[Dict[str, Any]] = None) -> Result:
        """Execute ``statement``: SQL text, a parsed statement, or a
        prepared one (a :class:`~repro.sql.parser.Template`) whose slots
        take ``values``.  ``params`` bind its ``:name`` parameters.

        ``cells`` is how expressions read cells and how writes store
        values: by default the stored rows and the plain values."""
        if isinstance(statement, str):
            statement, values = prepare(statement)
        tree = statement.tree if type(statement) is Template else statement
        if isinstance(tree, nodes.Select):
            with self._locking.locked(*self.statement_tables(tree)):
                return self._execute(statement, tree, cells, values, params)
        if isinstance(tree, _WRITES):
            # The durable scope goes around the table lock (see durable).
            with durable(self.durability), self._locking.locked(tree.table):
                return self._execute(statement, tree, cells, values, params)
        if params:
            tree = bind_parameters(tree, params)
        if isinstance(tree, nodes.Explain):
            return self._explain(tree.statement)
        with durable(self.durability):
            return self._execute_definition(tree)

    def _execute(self, statement, tree, cells: StoredCells,
                 values: Sequence[Any], params) -> Result:
        """Run a SELECT, INSERT, UPDATE or DELETE, its table lock held:
        through the compiled plan of a prepared ``statement`` (compiled
        again when its table's stamp changed), or one compiled for this run
        of a parsed one."""
        name = tree.table
        table = None if name is None else self.table(name)
        if statement is tree:
            plan = self._compile(tree, table, params or (), 0)
        else:
            plan = self._plans.get(statement)
            stamp = None if table is None else table.stamp
            if plan is None or plan.stamp != stamp:
                plan = self._compile(tree, table, sorted(statement.params),
                                     len(values))
                with self._plans_lock:
                    if len(self._plans) >= _PLAN_LIMIT:
                        self._plans.clear()
                    self._plans[statement] = plan
        args = values
        if plan.params:
            bound = params or {}
            args = [*values, *(bound.get(param, UNBOUND) for param in plan.params)]
        return self.executor.execute(plan, table, args, cells)

    def _compile(self, tree, table, params: Iterable[str], first: int) -> Compiled:
        """The plan of ``tree`` compiled, with each parameter of ``params``
        at its argument index, after the ``first`` slots'."""
        indexes = dict(zip(params, itertools.count(first)))
        return self.executor.compile(self.planner.plan(tree), table, indexes)

    def plan(self, statement):
        """The plan :meth:`run` would compile for ``statement`` (parsed on
        demand; callers wanting a stable snapshot of index choices should
        hold the table's lock, as :meth:`explain_lines` does)."""
        if isinstance(statement, str):
            statement = parse(statement)
        return self.planner.plan(statement)

    def explain_lines(self, statement) -> List[str]:
        """The EXPLAIN text for ``statement``, one line per plan node."""
        if isinstance(statement, str):
            statement = parse(statement)
        if isinstance(statement, nodes.Explain):
            statement = statement.statement
        tables = self.statement_tables(statement)
        with self._locking.locked(*tables):
            return self.planner.plan(statement).explain()

    def _explain(self, statement) -> Result:
        return Result(["plan"], [[line] for line in self.explain_lines(statement)])

    def _execute_definition(self, statement) -> Result:
        """Run a CREATE or DROP of a table or index."""
        if isinstance(statement, nodes.CreateIndex):
            with self._locking.locked(statement.table):
                return self._create_index(statement)
        if isinstance(statement, nodes.DropIndex):
            return self._drop_index(statement)
        if isinstance(statement, nodes.CreateTable):
            with self._locking.locked(statement.table), self.catalog_lock:
                return self._create(statement)
        if isinstance(statement, nodes.DropTable):
            with self._locking.locked(statement.table), self.catalog_lock:
                return self._drop(statement)
        raise SQLError(f"cannot execute {type(statement).__name__}")

    def table(self, name: str) -> Table:
        # Lock-free directory *read*: dict lookups are atomic under the GIL
        # and every mutation of ``self.tables`` happens under the catalog
        # lock.  Taking the catalog lock here would invert the
        # catalog-before-table ordering for callers that already hold a
        # table lock (e.g. a ``Database.transaction`` block).
        try:
            return self.tables[name]
        except KeyError:
            raise SQLError(f"no such table: {name}") from None

    # -- statement execution ---------------------------------------------------------

    def _create(self, stmt: nodes.CreateTable) -> Result:
        if stmt.table in self.tables:
            if stmt.if_not_exists:
                return Result()
            raise SQLError(f"table {stmt.table} already exists")
        table = Table(stmt.table, stmt.columns)
        self.tables[stmt.table] = table
        self._log(table.create_record())
        return Result()

    def _drop(self, stmt: nodes.DropTable) -> Result:
        if stmt.table not in self.tables:
            if stmt.if_exists:
                return Result()
            raise SQLError(f"no such table: {stmt.table}")
        del self.tables[stmt.table]
        self._log({"op": "sql.drop", "table": stmt.table})
        return Result()

    # -- secondary indexes ------------------------------------------------------

    def create_index(
        self,
        table: str,
        column: str,
        kind: str = "sorted",
        name: Optional[str] = None,
        if_not_exists: bool = True,
    ) -> Result:
        """Declare (and immediately build) a secondary index — the Python
        spelling of ``CREATE INDEX``, durable like any other mutation."""
        if name is None:
            name = f"idx_{table}_{column}"
        return self.run(nodes.CreateIndex(name, table, column, kind, if_not_exists))

    def _create_index(self, stmt: nodes.CreateIndex) -> Result:
        table = self.table(stmt.table)
        if stmt.name in table.indexes:
            if stmt.if_not_exists:
                return Result()
            raise SQLError(f"index {stmt.name} already exists on {table.name}")
        if not table.has_column(stmt.column):
            raise SQLError(
                f"table {table.name} has no column {stmt.column!r}")
        index = table.add_index(stmt.name, stmt.column, stmt.kind)
        self._log(table.index_record(index))
        return Result()

    def _drop_index(self, stmt: nodes.DropIndex) -> Result:
        owner = self._index_owner(stmt.name)
        if owner is None:
            if stmt.if_exists:
                return Result()
            raise SQLError(f"no such index: {stmt.name}")
        with self._locking.locked(owner):
            table = self.tables.get(owner)
            if table is None or stmt.name not in table.indexes:
                if stmt.if_exists:
                    return Result()
                raise SQLError(f"no such index: {stmt.name}")
            table.drop_index(stmt.name)
            self._log({"op": "sql.drop_index", "table": owner, "index": stmt.name})
        return Result()

    def _index_owner(self, name: str) -> Optional[str]:
        for table in list(self.tables.values()):
            if name in table.indexes:
                return table.name
        return None
