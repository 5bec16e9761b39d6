"""SQL channel: policy persistence across the database.

The paper attaches a default filter object to the function that issues SQL
queries, and uses it to keep each cell's policies beside the cell
(Figure 4).  Here that is one rule, applied where the engine evaluates:

* ``CREATE TABLE`` gains one extra ``__policy_<col>`` column per data column;
* expressions (SELECT items, aggregates, UPDATE assignments) evaluate over
  the cells they read with the stored policies re-attached, decoding each
  distinct stored blob once;
* a write (``INSERT`` / ``UPDATE``) stores whatever policies the evaluated
  value carries into the cell's policy column.

:class:`PolicyCells` is that rule, and the only code that knows the policy
column format; :class:`Database` passes it to the engine.  ``Database`` is
the application-facing handle.  Queries are issued as (possibly tainted)
SQL text; the query text itself flows through the channel's filter chain
as a guarded function call, which is where an application-supplied
SQL-injection filter interposes (Section 5.3).
"""

from __future__ import annotations
import json
import threading
from typing import Any, Dict, FrozenSet, List, Optional, Union
from ..core.context import FilterContext
from ..core.exceptions import SQLError
from ..core.filter import Filter, FilterChain
from ..core.registry import default_filter
from ..core.request_context import current_request
from ..core.policyset import PolicySet
from ..core.serialization import (deserialize_policyset, deserialize_rangemap,
                                  serialize_policyset, serialize_rangemap)
from ..sql import nodes
from ..sql.engine import Engine
from ..sql.executor import Result, StoredCells, stored_value
from ..sql.parser import param_names, parse
from ..sql.planner import bind_parameters, collect_params, walk
from ..tracking.propagation import policies_of
from ..tracking.ranges import RangeMap
from ..tracking.tainted_number import TaintedFloat, TaintedInt
from ..tracking.tainted_str import TaintedStr

#: Prefix of the hidden policy columns.
POLICY_COLUMN_PREFIX = "__policy_"

#: Bound on the decoded-blob memo (cleared, not evicted, when full: the
#: blob population is small and repetitive in practice).
_BLOB_CACHE_LIMIT = 1024

# Strictly decoded policy blobs, keyed by the stored blob string, so each
# distinct blob is decoded once rather than once per result cell.
# Process-wide like the merge memo in ``tracking/merge.py``: policy sets are
# already interned process-wide, so sharing decodes across environments
# shares nothing new.  Only successful strict decodes are stored: a failed
# decode raises again on the next read, and a tolerant decode's
# ``UnknownPolicy`` placeholders never outlive their class becoming
# importable.  Reads take no lock; a miss takes it to bound the size.
_blob_cache: Dict[str, Union[RangeMap, PolicySet]] = {}
_blob_cache_lock = threading.Lock()


def policy_column(column: str) -> str:
    return POLICY_COLUMN_PREFIX + column


def is_policy_column(column: str) -> bool:
    return column.startswith(POLICY_COLUMN_PREFIX)


def serialize_cell_policies(value: Any) -> Optional[str]:
    """Serialize the policies of one cell value to a JSON string, or ``None``
    if the value carries no policy."""
    if isinstance(value, TaintedStr):
        if value.rangemap.is_empty():
            return None
        return json.dumps({"kind": "rangemap",
                           "map": serialize_rangemap(value.rangemap)})
    policies = policies_of(value)
    if not policies:
        return None
    return json.dumps({"kind": "policyset",
                       "policies": serialize_policyset(policies)})


def apply_cell_policies(value: Any, serialized: Optional[str], *,
                        tolerant: bool = False) -> Any:
    """Re-attach the policies stored in ``serialized`` to ``value``.

    ``tolerant=True`` (set on databases recovered by a tolerant durability
    open) loads policies whose class is unknown as deny-by-default
    :class:`~repro.core.serialization.UnknownPolicy` placeholders instead of
    raising, so one stale record cannot make a whole table unreadable.
    Strict decodes are memoized per distinct blob (see ``_blob_cache``)."""
    if not serialized or value is None:
        return value
    decoded = None if tolerant else _blob_cache.get(serialized)
    if decoded is None:
        decoded = _decode_blob(serialized, tolerant)
        if not tolerant:
            with _blob_cache_lock:
                if len(_blob_cache) >= _BLOB_CACHE_LIMIT:
                    _blob_cache.clear()
                _blob_cache[serialized] = decoded
    if isinstance(decoded, RangeMap):
        if not isinstance(value, str):
            return value
        if decoded.length != len(value):
            decoded = decoded.spread(len(value)).with_length(len(value))
        return TaintedStr(str(value), decoded)
    policies = decoded
    if isinstance(value, str):
        result = TaintedStr(str(value))
        for policy in policies:
            result = result.with_policy(policy)
        return result
    if isinstance(value, int) and not isinstance(value, bool):
        return TaintedInt(value, policies)
    if isinstance(value, float):
        return TaintedFloat(value, policies)
    return value


def _decode_blob(serialized: str, tolerant: bool) -> Union[RangeMap, PolicySet]:
    record = json.loads(serialized)
    if record.get("kind") == "rangemap":
        return deserialize_rangemap(record["map"], tolerant=tolerant)
    return deserialize_policyset(record.get("policies", []),
                                 tolerant=tolerant)


class PolicyCells(StoredCells):
    """A table's cells with their policies: each data column ``c`` keeps
    the serialized policies of its cell in ``__policy_c``.

    Expressions read the cells with those policies attached, and a write
    stores what the evaluated value carries, so every SQL computation
    propagates policies by the ``tracking`` rules it evaluates with.  The
    two helpers above are looked up as module globals on every call, so
    instrumentation that replaces them here sees every attach and
    serialize."""

    def __init__(self, db: "Database"):
        self.db = db

    def columns(self, table) -> List[str]:
        return [c for c in table.column_names if not is_policy_column(c)]

    def viewer(self, table, exprs):
        read = {}
        for expr in exprs:
            if isinstance(expr, nodes.SelectItem):
                expr = expr.expr
            if isinstance(expr, nodes.ColumnRef):
                read[expr.name] = None
                continue
            for node in walk(expr):
                if isinstance(node, nodes.ColumnRef):
                    read[node.name] = None
                elif isinstance(node, nodes.Star):
                    read.update(dict.fromkeys(self.columns(table)))
        # The view holds only the columns read: data columns with their
        # policies attached, policy columns raw.  A column the table lacks
        # stays out, so evaluating it still raises.
        present = table.column_names
        attach, raw = [], []
        for name in read:
            if name in present:
                if name.startswith(POLICY_COLUMN_PREFIX):
                    raw.append(name)
                else:
                    attach.append((name, POLICY_COLUMN_PREFIX + name))
        if not attach:
            return None
        tolerant = self.db.tolerant_policies

        def view(row):
            viewed = {}
            for name, policy in attach:
                viewed[name] = apply_cell_policies(
                    row[name], row.get(policy), tolerant=tolerant)
            for name in raw:
                viewed[name] = row[name]
            return viewed

        return view

    def store(self, table, row, column: str, value) -> None:
        row[column] = stored_value(value)
        if is_policy_column(column):
            return
        policy = policy_column(column)
        if not table.has_column(policy):
            table.add_column(nodes.ColumnDef(policy, "TEXT"))
        row[policy] = serialize_cell_policies(value)


class Database:
    """A RESIN-aware database connection."""

    def __init__(self, engine: Optional[Engine] = None,
                 persist_policies: bool = True,
                 context: Optional[dict] = None, *, env=None):
        self.engine = engine if engine is not None else Engine()
        self.env = env
        ctx = FilterContext(type="sql")
        # Carried as an attribute (never printed in violation messages):
        # lets request-scoped helpers ignore requests bound for other
        # environments.
        ctx.env = env
        if context:
            ctx.update(context)
        self.filter = FilterChain([default_filter(env, "sql", ctx)], ctx)
        self.context = ctx
        self.persist_policies = persist_policies
        self.cells = PolicyCells(self)
        #: When True (set by a tolerant durability open), unknown policy
        #: classes in stored policy columns load as deny-by-default
        #: ``UnknownPolicy`` placeholders instead of failing the read.
        self.tolerant_policies = False

    # -- filter management ---------------------------------------------------------

    def add_filter(self, flt: Filter) -> None:
        """Stack an application filter (e.g. a SQL-injection assertion) on
        the query path.

        While a :class:`~repro.core.request_context.RequestContext` for this
        database's environment is active, the filter joins that request's
        *overlay*: it guards queries only for the duration of the request and
        pops automatically when the request ends.  Outside a request — or on
        a database the bound request's environment does not own — the filter
        joins the base chain and guards every query for the life of the
        connection (the pre-request-context behaviour — use this for
        deployment-time assertions).
        """
        rctx = self._request()
        if rctx is not None:
            rctx.add_db_filter(self, flt)
            return
        flt.context = self.context
        self.filter.append(flt)

    def _request(self):
        """The RequestContext owning this database, if one is bound.

        The environment check keeps requests from capturing (and then
        silently dropping) filters destined for some *other* environment's
        database."""
        rctx = current_request()
        if (rctx is not None and self.env is not None
                and rctx.env is self.env):
            return rctx
        return None

    def _effective_chain(self) -> FilterChain:
        """The base chain plus the current request's overlay (if any)."""
        rctx = self._request()
        overlay = rctx.db_filters(self) if rctx is not None else ()
        if not overlay:
            return self.filter
        return FilterChain(list(self.filter.filters) + list(overlay),
                           self.context)

    # -- query API -----------------------------------------------------------------------

    def query(self, sql, params: Optional[Dict[str, Any]] = None
              ) -> "PreparedQuery":
        """Prepare and (when fully bound) execute one SQL statement.

        Returns a :class:`PreparedQuery`.  A statement without unbound
        ``:name`` parameters executes immediately — the handle then behaves
        exactly like the :class:`~repro.sql.executor.Result` it wraps (rows,
        columns, ``scalar()``, iteration) — and additionally offers
        ``.explain()`` and ``.run(**params)`` for re-execution.  A statement
        with unbound parameters defers execution until ``.run()``.

        Every execution passes the *raw* query text through the channel's
        filter chain (the base filters, then the current request's overlay
        filters) as a guarded function call before parsing, so stacked
        filters see exactly what the application sent (including the
        character-level policies of any interpolated user input);
        parameters are bound after the chain, into the parsed statement.
        """
        return PreparedQuery(self, sql, params)

    def execute_unchecked(self, sql) -> Result:
        """Execute a statement bypassing stacked filters (still persisting
        policies).  Intended for schema setup in tests and installers."""
        return self._execute(sql)

    def create_index(self, table: str, column: str, kind: str = "sorted",
                     name: Optional[str] = None) -> Result:
        """Declare a secondary index on ``table.column`` (schema setup —
        bypasses stacked filters, like :meth:`execute_unchecked`).  The
        definition is WAL-logged and snapshot-persisted on durable engines;
        the index itself is rebuilt from rows on recovery."""
        return self.engine.create_index(table, column, kind, name)

    def transaction(self, *tables: str):
        """Hold the locks of ``tables`` across a compound operation.

        Use this for application-level read-modify-write sequences that span
        several queries (check then update, move a row between tables, …):
        the named tables stay consistent for the whole block while queries
        against *other* tables proceed concurrently.  The locks are acquired
        in deterministic (sorted-name) order — the engine's lock-ordering
        rule — so overlapping transactions never deadlock.  Name every
        table the block touches: a query inside the block against a table
        that sorts before the held set would break the ordering, and the
        engine raises ``SQLError`` rather than risk a deadlock::

            with db.transaction("accounts", "audit_log"):
                balance = db.query("SELECT ... FROM accounts ...").scalar()
                db.query(f"UPDATE accounts SET ...")
                db.query(f"INSERT INTO audit_log ...")
        """
        return self.engine.locked(*tables)

    # -- execution with policy persistence ---------------------------------------------------

    def _execute(self, sql, params: Optional[Dict[str, Any]] = None) -> Result:
        statement = parse(sql) if isinstance(sql, str) else sql
        if params:
            statement = bind_parameters(statement, params)
        # Each statement is one engine run, which holds the statement's
        # table locks (and, on a durable engine, one durable scope) around
        # every read, write and lazy policy column it makes.
        if not self.persist_policies:
            return self.engine.run(statement)
        if isinstance(statement, nodes.CreateTable):
            return self._create(statement)
        return self.engine.run(statement, self.cells)

    def _create(self, stmt: nodes.CreateTable) -> Result:
        policy_columns = [nodes.ColumnDef(policy_column(column.name), "TEXT")
                          for column in stmt.columns
                          if not is_policy_column(column.name)]
        return self.engine.run(nodes.CreateTable(
            stmt.table, stmt.columns + policy_columns, stmt.if_not_exists))


def _query_param_names(sql) -> FrozenSet[str]:
    """The ``:name`` parameters a query mentions.

    SQL text with no ``:`` has none.  Other text asks the parser's template
    memo, so it is scanned once on a miss and never on a hit.  Text that
    fails to tokenize is reported as parameterless — the filter chain may
    rewrite it into valid SQL (the auto-sanitizing filter does), so errors
    are left to the execution path, which sees exactly what the chain
    produced."""
    if isinstance(sql, str):
        if ":" not in sql:
            return frozenset()
        return param_names(sql)
    return frozenset(collect_params(sql))


class PreparedQuery:
    """The handle :meth:`Database.query` returns.

    Wraps one SQL statement plus its (possibly partial) parameter bindings.
    When every ``:name`` parameter is bound the statement executes eagerly
    at construction, so ``db.query(sql)`` keeps its pre-plan-API behaviour —
    the handle delegates the whole :class:`~repro.sql.executor.Result` API to
    the most recent execution.  On top of that it offers:

    * ``run(**params)`` — (re-)execute with additional bindings; each
      execution re-enters the channel's filter chain with the *original*
      query text, so injection filters and request overlays apply every
      time;
    * ``explain()`` — the plan as stable text (one node per line, two-space
      indent per level) without executing; unbound parameters appear as
      ``:name`` in plan predicates.
    """

    def __init__(self, db: Database, sql,
                 params: Optional[Dict[str, Any]] = None):
        self._db = db
        self._sql = sql
        self._params: Dict[str, Any] = dict(params) if params else {}
        self._names = _query_param_names(sql)
        self._result: Optional[Result] = None
        if not (self._names - set(self._params)):
            self._result = self._invoke(self._params)

    def _invoke(self, params: Dict[str, Any]) -> Result:
        kwargs = {"params": params} if params else {}
        return self._db._effective_chain().filter_func(
            self._db._execute, (self._sql,), kwargs)

    def run(self, **params: Any) -> "PreparedQuery":
        """(Re-)execute with ``params`` overlaid on the constructor's
        bindings; returns ``self`` for chaining."""
        merged = {**self._params, **params}
        missing = self._names - set(merged)
        if missing:
            raise SQLError("unbound parameter :"
                           + ", :".join(sorted(missing)))
        self._params = merged
        self._result = self._invoke(merged)
        return self

    def explain(self) -> str:
        """The statement's plan as stable text, without executing it."""
        statement = (parse(self._sql) if isinstance(self._sql, str)
                     else self._sql)
        if isinstance(statement, nodes.Explain):
            statement = statement.statement
        if self._params:
            statement = bind_parameters(statement, self._params)
        return "\n".join(self._db.engine.explain_lines(statement))

    # -- Result delegation ---------------------------------------------------------

    @property
    def result(self) -> Result:
        """The most recent execution's :class:`~repro.sql.executor.Result`."""
        if self._result is None:
            missing = sorted(self._names - set(self._params))
            raise SQLError(
                "prepared query has unbound parameters (:"
                + ", :".join(missing) + "); call .run(name=value, ...)")
        return self._result

    @property
    def columns(self):
        return self.result.columns

    @property
    def rows(self):
        return self.result.rows

    @property
    def rowcount(self):
        return self.result.rowcount

    def scalar(self):
        return self.result.scalar()

    def __iter__(self):
        return iter(self.result)

    def __len__(self):
        return len(self.result)

    def __bool__(self):
        return bool(self.result)

    def __repr__(self) -> str:
        state = ("unbound" if self._result is None
                 else f"{self.result.rowcount} rows")
        return f"PreparedQuery({str(self._sql)[:60]!r}, {state})"
