"""Recursive-descent SQL parser.

Produces :mod:`repro.sql.nodes` AST from a token stream.  The supported
dialect covers what the paper's applications need: CREATE/DROP TABLE, INSERT,
SELECT (WHERE / ORDER BY / LIMIT / aggregates), UPDATE and DELETE, with the
usual comparison operators, ``AND``/``OR``/``NOT``, ``LIKE``, ``IN`` and
``IS [NOT] NULL``.

The parser reads the arrays of token kinds and values that one scan of
the statement fills (:func:`~repro.sql.tokenizer.scan`) and builds no token
object.  Each token has one *kind*: a keyword's, operator's or
punctuation's value (``"select"``, ``"!="``, ``"("``) and any other token's
type (``IDENT``, also for a backquoted name spelled like a keyword,
``STRING``, ``NUMBER``, ``PARAM``, ``EOF``), so every grammar decision is
one list lookup.

:func:`parse` parses each statement *shape* once.  A process-wide memo
keeps, by skeleton (:func:`~repro.sql.tokenizer.skeleton`: the text with
every string literal and number cut out, plus each one's kind), a
:class:`Template`: the first parse's tree with a
:class:`~repro.sql.nodes.Slot` where each slot's ``Literal`` was, and the
*spine*, the paths that lead there.  A later statement with the same
skeleton is not scanned: each slot's value is cut from its own text
(:func:`~repro.sql.tokenizer.slot_values`) and bound into a copy of the
template's spine only; the rest of the tree is shared, and nothing mutates
a parsed tree.  A template is kept only when the scan read each slot as one
STRING or NUMBER token of the same span, and the parser put each such
token, unchanged, into exactly one ``Literal`` of the tree.  Then every
text with that skeleton tokenizes and parses the same way, up to the slots'
values.  A negated number, ``LIMIT``/``OFFSET``, a type width or a
``DEFAULT`` does not land in a ``Literal`` unchanged, so its statement is
parsed every time.  A template holds no value of the statement that made
it.

A template is also the *prepared statement* of its shape, whose slots and
``:name`` parameters are its parameters.  :func:`prepare` gives a SELECT,
INSERT, UPDATE or DELETE as its template and its own slot values, binding
no tree: an engine compiles the template's plan once and runs it with the
values (:meth:`repro.sql.engine.Engine.run`).
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core.exceptions import SQLError
from . import nodes
from .tokenizer import (
    EOF,
    IDENT,
    KEYWORDS,
    NUMBER,
    OPERATORS,
    PARAM,
    SLOTS,
    STRING,
    scan,
    skeleton,
    slot_values,
)

_TYPE_KEYWORDS = {"integer", "int", "text", "real", "float", "varchar", "char"}
_AGGREGATES = {"count", "min", "max", "sum", "avg"}
_FUNCTIONS = _AGGREGATES | {"lower", "upper", "length"}

#: The kinds of tokens that name a table or column (unreserved keywords may
#: double as identifiers, e.g. a column named "key").
_NAMES = KEYWORDS | {IDENT}
#: Column constraints: (second keyword or None, constraint text).
_CONSTRAINTS = {
    "primary": ("key", "PRIMARY KEY"),
    "not": ("null", "NOT NULL"),
    "unique": (None, "UNIQUE"),
    "autoincrement": (None, "AUTOINCREMENT"),
}
#: How deep parentheses, NOT, signs, function arguments and IN lists nest.
_MAX_NESTING = 100

#: Bound on the template memo, which is cleared, not evicted, when full
#: (like the SQL channel's decoded-blob memo).
_TEMPLATE_LIMIT = 1024
#: How deep in a tree a slot's ``Literal`` may sit for its statement to
#: keep a template; it bounds the recursion of :func:`_spine` and
#: :func:`_rebind` (an ``AND`` chain nests without bound).
_MAX_SPINE = 64
#: What :func:`_spine` descends into: the containers and the nodes whose
#: fields can hold an expression.  A slot below any other node is not
#: found, so its statement keeps no template.
_BRANCHES = frozenset(
    (
        list,
        tuple,
        nodes.Select,
        nodes.SelectItem,
        nodes.OrderBy,
        nodes.Insert,
        nodes.Update,
        nodes.Delete,
        nodes.Explain,
        nodes.BinaryOp,
        nodes.UnaryOp,
        nodes.InList,
        nodes.IsNull,
        nodes.FuncCall,
    )
)

# Statement templates by skeleton.  Process-wide like the blob memo: a
# template holds only a statement's shape, never a value.  Reads take no
# lock; an insert takes it to bound the size.  A template is never mutated.
_templates: Dict[tuple, "Template"] = {}
_templates_lock = threading.Lock()


class Parser:
    """Parses one SQL statement."""

    def __init__(self, sql):
        self.sql = sql
        self.kinds, self.values, self.spans = scan(sql)
        self.position = 0
        self.depth = 0
        #: The ``Literal`` read from each STRING or NUMBER token, by index.
        self.literals: Dict[int, nodes.Literal] = {}

    # -- token helpers ---------------------------------------------------------

    def expect(self, kind: str):
        """Consume the current token, which must be of ``kind``; returns its
        value."""
        value = self.values[self.position]
        if self.kinds[self.position] != kind:
            raise SQLError(
                f"expected {kind!r}, found {value!r} in "
                f"query: {str(self.sql)[:200]}"
            )
        self.position += 1
        return value

    def expect_ident(self) -> str:
        value = self.values[self.position]
        if self.kinds[self.position] not in _NAMES:
            raise SQLError(f"expected identifier, found {value!r}")
        self.position += 1
        return value

    def _list(self, read) -> list:
        """``read()`` once, then again after every comma."""
        items = [read()]
        while self.kinds[self.position] == ",":
            self.position += 1
            items.append(read())
        return items

    def _nested(self, read):
        """``read()`` one nesting level deeper."""
        if self.depth == _MAX_NESTING:
            raise SQLError("expression nested too deeply")
        self.depth += 1
        result = read()
        self.depth -= 1
        return result

    def _if(self, *words: str) -> bool:
        """An optional ``IF [NOT] EXISTS``: True when present."""
        if self.kinds[self.position] != "if":
            return False
        self.position += 1
        for word in words:
            self.expect(word)
        return True

    # -- entry point -------------------------------------------------------------

    def parse(self) -> nodes.Statement:
        statement = self._statement()
        if self.kinds[self.position] == ";":
            self.position += 1
        if self.kinds[self.position] != EOF:
            raise SQLError(
                f"unexpected trailing input near {self.values[self.position]!r}"
            )
        return statement

    def _statement(self) -> nodes.Statement:
        explains = 0
        while self.kinds[self.position] == "explain":
            self.position += 1
            explains += 1
        read = _STATEMENTS.get(self.kinds[self.position])
        if read is None:
            raise SQLError(f"unsupported statement: {str(self.sql)[:200]}")
        self.position += 1
        statement = read(self)
        if explains > 1:
            raise SQLError("EXPLAIN cannot be nested")
        return nodes.Explain(statement) if explains else statement

    # -- statements ------------------------------------------------------------------

    def _create(self) -> nodes.Statement:
        if self.kinds[self.position] == "index":
            self.position += 1
            return self._create_index()
        self.expect("table")
        if_not_exists = self._if("not", "exists")
        table = self.expect_ident()
        self.expect("(")
        columns = self._list(self._column_def)
        self.expect(")")
        return nodes.CreateTable(table, columns, if_not_exists)

    def _column_def(self) -> nodes.ColumnDef:
        name = self.expect_ident()
        kinds = self.kinds
        column_type = "TEXT"
        if kinds[self.position] in _TYPE_KEYWORDS:
            column_type = kinds[self.position].upper()
            self.position += 1
            if kinds[self.position] == "(":
                self.position += 1
                self.expect(NUMBER)
                self.expect(")")
        constraints: List[str] = []
        while True:
            kind = kinds[self.position]
            if kind == "default":
                self.position += 1
                constraints.append(f"DEFAULT {self._primary().to_sql()}")
            elif kind in _CONSTRAINTS:
                self.position += 1
                second, constraint = _CONSTRAINTS[kind]
                if second:
                    self.expect(second)
                constraints.append(constraint)
            else:
                return nodes.ColumnDef(name, column_type, constraints)

    def _create_index(self) -> nodes.CreateIndex:
        if_not_exists = self._if("not", "exists")
        name = self.expect_ident()
        self.expect("on")
        table = self.expect_ident()
        self.expect("(")
        column = self.expect_ident()
        self.expect(")")
        using = "sorted"
        if self.kinds[self.position] == "using":
            self.position += 1
            using = self.expect_ident().lower()
        return nodes.CreateIndex(name, table, column, using, if_not_exists)

    def _drop(self) -> nodes.Statement:
        if self.kinds[self.position] == "index":
            self.position += 1
            if_exists = self._if("exists")
            return nodes.DropIndex(self.expect_ident(), if_exists)
        self.expect("table")
        if_exists = self._if("exists")
        return nodes.DropTable(self.expect_ident(), if_exists)

    def _insert(self) -> nodes.Insert:
        self.expect("into")
        table = self.expect_ident()
        self.expect("(")
        columns = self._list(self.expect_ident)
        self.expect(")")
        self.expect("values")
        rows = self._list(lambda: self._value_tuple(len(columns)))
        return nodes.Insert(table, columns, rows)

    def _value_tuple(self, arity: int) -> List[nodes.Expr]:
        values = self._arguments()
        if len(values) != arity:
            raise SQLError(
                f"INSERT arity mismatch: {len(values)} values for {arity} columns"
            )
        return values

    def _select(self) -> nodes.Select:
        kinds = self.kinds
        distinct = kinds[self.position] == "distinct"
        if distinct:
            self.position += 1
        items = self._list(self._select_item)
        table = None
        if kinds[self.position] == "from":
            self.position += 1
            table = self.expect_ident()
        where = self._where()
        order_by: List[nodes.OrderBy] = []
        if kinds[self.position] == "order":
            self.position += 1
            self.expect("by")
            order_by = self._list(self._ordering)
        limit = offset = None
        if kinds[self.position] == "limit":
            self.position += 1
            limit = self._row_count("LIMIT")
            if kinds[self.position] == "offset":
                self.position += 1
                offset = self._row_count("OFFSET")
        return nodes.Select(items, table, where, order_by, limit, offset, distinct)

    def _row_count(self, clause: str) -> int:
        value = self.expect(NUMBER)
        if not isinstance(value, int):
            raise SQLError(f"{clause} must be an integer, found {value!r}")
        return value

    def _select_item(self) -> nodes.SelectItem:
        if self.kinds[self.position] == "*":
            self.position += 1
            return nodes.SelectItem(nodes.Star())
        expr = self._expression()
        alias = None
        kind = self.kinds[self.position]
        if kind == "as":
            self.position += 1
            alias = self.expect_ident()
        elif kind == IDENT:
            alias = self.values[self.position]
            self.position += 1
        return nodes.SelectItem(expr, alias)

    def _ordering(self) -> nodes.OrderBy:
        expr = self._expression()
        kind = self.kinds[self.position]
        if kind == "desc" or kind == "asc":
            self.position += 1
        return nodes.OrderBy(expr, kind == "desc")

    def _update(self) -> nodes.Update:
        table = self.expect_ident()
        self.expect("set")
        assignments = self._list(self._assignment)
        return nodes.Update(table, assignments, self._where())

    def _assignment(self) -> Tuple[str, nodes.Expr]:
        column = self.expect_ident()
        self.expect("=")
        return column, self._expression()

    def _delete(self) -> nodes.Delete:
        self.expect("from")
        table = self.expect_ident()
        return nodes.Delete(table, self._where())

    def _where(self) -> Optional[nodes.Expr]:
        if self.kinds[self.position] != "where":
            return None
        self.position += 1
        return self._expression()

    # -- expressions -----------------------------------------------------------------

    def _expression(self) -> nodes.Expr:
        left = self._conjunction()
        while self.kinds[self.position] == "or":
            self.position += 1
            left = nodes.BinaryOp("or", left, self._conjunction())
        return left

    def _conjunction(self) -> nodes.Expr:
        left = self._comparison()
        while self.kinds[self.position] == "and":
            self.position += 1
            left = nodes.BinaryOp("and", left, self._comparison())
        return left

    def _comparison(self) -> nodes.Expr:
        kinds = self.kinds
        if kinds[self.position] == "not":
            self.position += 1
            return nodes.UnaryOp("not", self._nested(self._comparison))
        left = self._primary()
        kind = kinds[self.position]
        if kind in OPERATORS:
            self.position += 1
            return nodes.BinaryOp(kind, left, self._primary())
        if kind == "like":
            self.position += 1
            return nodes.BinaryOp("like", left, self._primary())
        if kind == "not":
            following = kinds[self.position + 1]
            if following == "like":
                self.position += 2
                like = nodes.BinaryOp("like", left, self._primary())
                return nodes.UnaryOp("not", like)
            if following == "in":
                self.position += 2
                return nodes.InList(left, self._nested(self._arguments), negated=True)
            return left
        if kind == "in":
            self.position += 1
            return nodes.InList(left, self._nested(self._arguments), negated=False)
        if kind == "is":
            self.position += 1
            negated = kinds[self.position] == "not"
            if negated:
                self.position += 1
            self.expect("null")
            return nodes.IsNull(left, negated)
        return left

    def _arguments(self) -> List[nodes.Expr]:
        self.expect("(")
        items = self._list(self._expression)
        self.expect(")")
        return items

    def _primary(self) -> nodes.Expr:
        kinds = self.kinds
        kind = kinds[self.position]
        value = self.values[self.position]
        if kind == STRING or kind == NUMBER:
            literal = self.literals[self.position] = nodes.Literal(value)
            self.position += 1
            return literal
        if kind == "(":
            self.position += 1
            expr = self._nested(self._expression)
            self.expect(")")
            return expr
        if kind == "-" or kind == "+":
            self.position += 1
            operand = self._nested(self._primary)
            if kind == "+":
                return operand
            if isinstance(operand, nodes.Literal) and isinstance(
                operand.value, (int, float)
            ):
                return nodes.Literal(-operand.value)
            raise SQLError("unary minus is only supported on numeric literals")
        if kind == "null":
            self.position += 1
            return nodes.Literal(None)
        if kind == PARAM:
            self.position += 1
            return nodes.Param(value)
        if kind in _NAMES:
            self.position += 1
            following = kinds[self.position]
            if following == "(" and value.lower() in _FUNCTIONS:
                if kinds[self.position + 1] == "*":
                    self.position += 2
                    self.expect(")")
                    return nodes.FuncCall(value, [], star=True)
                return nodes.FuncCall(value, self._nested(self._arguments))
            if following == ".":
                self.position += 1
                if kinds[self.position] == "*":
                    self.position += 1
                    return nodes.Star(value)
                return nodes.ColumnRef(self.expect_ident(), table=value)
            return nodes.ColumnRef(value)
        raise SQLError(f"unexpected token {value!r} in expression")


#: The parser of each statement, by its first keyword (already consumed).
_STATEMENTS = {
    "create": Parser._create,
    "drop": Parser._drop,
    "insert": Parser._insert,
    "select": Parser._select,
    "update": Parser._update,
    "delete": Parser._delete,
}


def parse(sql) -> nodes.Statement:
    """Parse one SQL statement into an AST (once per statement shape)."""
    statement, values = prepare(sql)
    if type(statement) is Template:
        return statement.bind(values)
    return statement


def prepare(sql) -> tuple:
    """``(statement, values)``: a SELECT, INSERT, UPDATE or DELETE whose
    shape keeps a template is that :class:`Template` with the values of
    its slots in ``sql``; any other statement is its parsed tree with no
    values."""
    parts = SLOTS.split(sql)
    key = skeleton(parts)
    template = _templates.get(key)
    if template is not None:
        if not template.prepared:
            return template.bind(slot_values(sql, parts)), ()
        return template, slot_values(sql, parts)
    parser = Parser(sql)
    statement = parser.parse()
    template = _remember(key, parts, parser, statement)
    if template is None or not template.prepared:
        return statement, ()
    # The slots' literals, in slot order: their tokens are the slots.
    return template, [literal.value for literal in parser.literals.values()]


def param_names(sql) -> FrozenSet[str]:
    """The names of the ``PARAM`` tokens of ``sql``: none when it does not
    scan.  A statement that parses leaves its template for the parse that
    follows."""
    parts = SLOTS.split(sql)
    key = skeleton(parts)
    template = _templates.get(key)
    if template is not None:
        return template.params
    try:
        parser = Parser(sql)
    except SQLError:
        return frozenset()
    try:
        statement = parser.parse()
    except SQLError:
        return _params(parser)
    _remember(key, parts, parser, statement)
    return _params(parser)


def clear_templates() -> None:
    """Forget every statement template."""
    with _templates_lock:
        _templates.clear()


#: The statements :func:`prepare` gives as their template: those an engine
#: compiles a plan for.
_PREPARED = (nodes.Select, nodes.Insert, nodes.Update, nodes.Delete)


class Template:
    """The prepared statement of one shape: the tree of its first parse
    with ``Slot(n)`` where the ``Literal`` of slot ``n`` was, the spine
    leading there (see :func:`_rebind`) and the statement's parameter
    names.  A template is immutable and holds no value of a statement, so
    threads and engines share it."""

    __slots__ = ("tree", "spine", "params", "prepared")

    def __init__(self, tree, spine: tuple, params: FrozenSet[str]):
        self.tree = tree
        self.spine = spine
        self.params = params
        #: Whether :func:`prepare` gives the template itself.
        self.prepared = isinstance(tree, _PREPARED)

    def bind(self, values: list):
        """The statement with ``values`` in its slots."""
        return _rebind(
            self.tree, self.spine, [nodes.Literal(value) for value in values]
        )


def _params(parser: Parser) -> FrozenSet[str]:
    kinds = parser.kinds
    if PARAM not in kinds:
        return frozenset()
    return frozenset(
        value for kind, value in zip(kinds, parser.values) if kind == PARAM
    )


def _remember(
    key: tuple, parts: list, parser: Parser, statement
) -> Optional[Template]:
    """Keep and return the template of ``statement`` under ``key`` when
    each slot of ``parts`` is one STRING or NUMBER token of ``parser`` that
    landed unchanged in exactly one ``Literal`` of ``statement``."""
    # Every STRING or NUMBER token became a Literal, and those tokens are
    # the slots.
    literals = parser.literals
    kinds, spans = parser.kinds, parser.spans
    if kinds.count(STRING) + kinds.count(NUMBER) != len(literals):
        return None
    slots = []
    offset = 0
    for index, part in enumerate(parts):
        end = offset + len(part)
        if index % 2:
            slots.append((offset, end))
        offset = end
    if [spans[index] for index in literals] != slots:
        return None
    holes = {id(literal): slot for slot, literal in enumerate(literals.values())}
    found: List[int] = []
    spine = _spine(statement, holes, found, _MAX_SPINE)
    if len(found) != len(holes) or len(set(found)) != len(holes):
        return None
    tree = _rebind(statement, spine, list(map(nodes.Slot, range(len(holes)))))
    template = Template(tree, spine, _params(parser))
    with _templates_lock:
        if len(_templates) >= _TEMPLATE_LIMIT:
            _templates.clear()
        _templates[key] = template
    return template


def _spine(value, holes: Dict[int, int], found: List[int], depth: int) -> tuple:
    """The spine from ``value``, one of ``_BRANCHES``, to each ``Literal``
    of ``holes`` (slot numbers by id) below it, down to ``depth`` levels:
    one ``(step, slot or spine)`` pair per field or index leading to one.
    Appends each slot it reaches to ``found``."""
    if type(value) is list or type(value) is tuple:
        children = enumerate(value)
    else:
        children = [(name, getattr(value, name)) for name in type(value).__slots__]
    spine = []
    for step, child in children:
        if type(child) is nodes.Literal:
            slot = holes.get(id(child))
            if slot is not None:
                found.append(slot)
                spine.append((step, slot))
        elif depth > 1 and type(child) in _BRANCHES:
            branch = _spine(child, holes, found, depth - 1)
            if branch:
                spine.append((step, branch))
    return tuple(spine)


def _rebind(node, spine: tuple, literals: list):
    """A copy of ``node`` in which each step of ``spine`` is copied in turn,
    down to the slot it ends on, which takes that slot's literal; every
    other branch is shared.  A node is copied slot by slot."""
    cls = type(node)
    if cls is list or cls is tuple:  # a tuple: an UPDATE's (column, value)
        fields = list(node)
    else:
        fields = {name: getattr(node, name) for name in cls.__slots__}
    for step, branch in spine:
        if type(branch) is int:
            fields[step] = literals[branch]
        else:
            fields[step] = _rebind(fields[step], branch, literals)
    if cls is list:
        return fields
    if cls is tuple:
        return tuple(fields)
    copy = object.__new__(cls)
    for name, value in fields.items():
        setattr(copy, name, value)
    return copy
