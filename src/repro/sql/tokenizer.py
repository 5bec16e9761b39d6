"""SQL tokenizer.

Tokenizes a (possibly tainted) SQL query string while preserving the
character-level policies of every token: each token can cut the
:class:`~repro.tracking.tainted_str.TaintedStr` slice it was read from, so
the SQL-injection filter can ask "does any character of the query's
*structure* carry ``UntrustedData``?" (the second strategy of Section 5.3),
and a string literal's cooked value keeps the policies of its characters,
so the persistence filter can recover them.

A statement is read by one scan (:func:`scan`): one ``finditer`` of one
compiled pattern, which matches every token, comment and malformed input
with the whitespace before it, fills the arrays of token kinds and values
the parser reads.  :func:`tokenize` builds :class:`Token` objects from the
same scan.

The parser's template memo keys a statement on its *skeleton*
(:func:`skeleton`): the text cut at its slots (:data:`SLOTS`: each string
literal and number) plus each slot's kind.  :func:`slot_values` reads each
slot of a statement as :func:`scan` reads its token.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from ..core.exceptions import SQLError
from ..tracking.tainted_str import TaintedStr

KEYWORDS = frozenset("""
    select from where and or not insert into values update set delete create
    table drop if exists primary key null like in is order by asc desc limit
    offset integer int text real varchar char float distinct as count min max
    sum avg lower upper length unique default autoincrement index on explain
    using
""".split())

#: Token types.
KEYWORD = "KEYWORD"
IDENT = "IDENT"
STRING = "STRING"
NUMBER = "NUMBER"
OP = "OP"
PUNCT = "PUNCT"
PARAM = "PARAM"
EOF = "EOF"

#: A ``'…'`` string literal with ``''`` escapes.  It cannot end on the first
#: quote of an escape, so it matches the whole literal or nothing.
_LITERAL = r"'[^']*(?:''[^']*)*'(?!')"

#: A number: decimal digits with at most one ``.``.  Greedy, so it ends
#: where no digit (or first ``.``) follows.
_NUMBER = r"\d+(?:\.\d*)?|\.\d+"

#: One match per token, comment or malformed character, with the whitespace
#: before it; at the end of the text, the trailing whitespace alone.  ``\w``
#: is ``str.isalnum()`` or ``_``, ``\d`` is ``str.isdecimal()`` (what
#: ``int()`` accepts) and ``\s`` is ``str.isspace()``; :func:`scan` checks
#: that a word starts with a letter or ``_``.  An unterminated literal,
#: backquoted name or comment falls through to the last group, which
#: reports it.
_TOKENS = re.compile(
    r"\s*(?:"
    r"([^\W\d]\w*)"  # 1: word
    r"|(" + _NUMBER + r")"  # 2: number
    r"|(" + _LITERAL + r")"  # 3: string literal
    r"|(<>)"  # 4: the operator spelled "!="
    r"|(!=|<=|>=|[=<>+]|-(?!-)|[(),.;*])"  # 5: other operator, punctuation
    r"|(`[^`]*`)"  # 6: backquoted name
    r"|(:\w+)"  # 7: parameter
    r"|--[^\n]*\n?|/\*.*?\*/"  # comment
    r"|(.)"  # 8: malformed
    r")?",
    re.DOTALL,
)

#: The *slots* of a statement: each ``'…'`` literal (as :data:`_LITERAL`)
#: and each number of ASCII digits (as :data:`_NUMBER`).  A digit or ``.``
#: after a word character or a ``.`` starts no slot, since the scan reads
#: it as part of a word or parameter, or from the ``.`` on (``a1``,
#: ``:p1``, ``x.5``).  ``split`` returns the pieces between slots at even
#: indices and the slots at odd ones.  The first character is matched by one
#: set, so ``re`` skips the text between slots in C; lookbehinds after it
#: check what precedes a number.  A slot in a comment or a backquoted name,
#: or a number with a non-ASCII digit, is no STRING or NUMBER token of the
#: same span: the parser then keeps no template (see ``parser._remember``).
SLOTS = re.compile(
    r"(['0-9.]"
    r"(?:(?<=')[^']*(?:''[^']*)*'(?!')"  # the rest of a string literal
    r"|(?<=[0-9])(?<![\w.][0-9])[0-9]*(?:\.[0-9]*)?"  # a number from a digit
    r"|(?<=\.)(?<![\w.]\.)[0-9]+))"  # a number from its point
)

#: The kind of a slot in a skeleton: a string, a decimal or an integer.
_STRING_SLOT, _DECIMAL_SLOT, _INTEGER_SLOT = "'", ".", "0"

#: The kinds (values) of operator tokens.
OPERATORS = frozenset(("!=", "<=", ">=", "=", "<", ">", "+", "-"))

#: The token type of each kind (see :func:`scan`).
_TYPES = {
    **dict.fromkeys(KEYWORDS, KEYWORD),
    **dict.fromkeys(OPERATORS, OP),
    **dict.fromkeys("(),.;*", PUNCT),
    **{type: type for type in (IDENT, STRING, NUMBER, PARAM, EOF)},
}


def scan(sql) -> Tuple[List[str], list, List[Tuple[int, int]]]:
    """Read every token of ``sql`` in one pass; EOF comes last.

    Returns three arrays with one entry per token: its *kind* (a keyword's,
    operator's or punctuation's value, such as ``"select"``, ``"!="`` or
    ``"("``, and any other token's type: ``IDENT``, also for a backquoted
    name spelled like a keyword, ``STRING``, ``NUMBER``, ``PARAM``,
    ``EOF``), its cooked value (unescaped string content, int/float for
    numbers, lower-cased text for keywords) and its ``(start, end)`` span.
    """
    if not isinstance(sql, TaintedStr):
        sql = TaintedStr(sql)
    text = str(sql)
    kinds: List[str] = []
    values: list = []
    spans: List[Tuple[int, int]] = []
    for match in _TOKENS.finditer(text):
        group = match.lastindex
        if group is None:  # a comment, or the whitespace at the end
            continue
        lexeme = match[group]
        if group == 1:
            lowered = lexeme.lower()
            if lowered in KEYWORDS:
                kinds.append(lowered)
                values.append(lowered)
            elif lexeme[0].isalpha() or lexeme[0] == "_":
                kinds.append(IDENT)
                values.append(lexeme)
            else:
                _malformed(text, match.start(group))
        elif group == 5:
            kinds.append(lexeme)
            values.append(lexeme)
        elif group == 3:
            kinds.append(STRING)
            values.append(_cook(sql, lexeme, match.start(group)))
        elif group == 2:
            kinds.append(NUMBER)
            values.append(float(lexeme) if "." in lexeme else int(lexeme))
        elif group == 4:
            kinds.append("!=")
            values.append("!=")
        elif group == 6:
            kinds.append(IDENT)
            values.append(lexeme[1:-1])
        elif group == 7:
            kinds.append(PARAM)
            values.append(lexeme[1:])
        else:
            _malformed(text, match.start(group))
        spans.append(match.span(group))
    length = len(text)
    kinds.append(EOF)
    values.append(None)
    spans.append((length, length))
    return kinds, values, spans


def skeleton(parts: list) -> tuple:
    """The skeleton of a statement cut into ``parts`` by ``SLOTS.split``:
    its pieces between slots, with each slot replaced by its kind.  Integer
    and decimal slots differ, as ``LIMIT 2`` and ``LIMIT 2.5`` do."""
    key = parts.copy()
    for index in range(1, len(parts), 2):
        slot = parts[index]
        if slot[0] == "'":
            key[index] = _STRING_SLOT
        else:
            key[index] = _DECIMAL_SLOT if "." in slot else _INTEGER_SLOT
    return tuple(key)


def slot_values(sql, parts: list) -> list:
    """The value of each slot of ``parts`` (``SLOTS.split(sql)``), read as
    :func:`scan` reads a STRING or NUMBER token: a string is cut from
    ``sql``, so it keeps the policies of its characters."""
    values = []
    offset = 0
    for index in range(1, len(parts), 2):
        offset += len(parts[index - 1])
        slot = parts[index]
        if slot[0] == "'":
            if not isinstance(sql, TaintedStr):
                sql = TaintedStr(sql)
            values.append(_cook(sql, slot, offset))
        else:
            values.append(float(slot) if "." in slot else int(slot))
        offset += len(slot)
    return values


def _cook(sql: TaintedStr, literal: str, start: int) -> TaintedStr:
    """The value of the string ``literal`` read at ``start`` of ``sql``.

    The value is cut from the source so that its characters keep their
    policies: one slice per run between ``''`` escapes (each run keeps the
    first quote of its escape), joined once.
    """
    end = start + len(literal) - 1
    if "''" not in literal:
        return sql[start + 1 : end]
    pieces = []
    cursor = 1
    quote = literal.find("''", cursor)
    while quote >= 0:
        pieces.append(sql[start + cursor : start + quote + 1])
        cursor = quote + 2
        quote = literal.find("''", cursor)
    pieces.append(sql[start + cursor : end])
    return TaintedStr("").join(pieces)


def _malformed(text: str, index: int):
    """Raise the error of the malformed input at ``index``."""
    char = text[index]
    if char == "'":
        raise SQLError("unterminated string literal")
    if char == "`":
        raise SQLError("unterminated quoted identifier")
    if char == ":":
        raise SQLError(f"expected parameter name after ':' at position {index}")
    if text.startswith("/*", index):
        raise SQLError("unterminated comment")
    raise SQLError(f"unexpected character {char!r} at position {index}")


class Token:
    """One lexical token.

    ``text`` is the tainted source slice (including quotes for strings),
    cut from ``source`` only when asked for; ``value`` is the cooked value
    (unescaped string content, int/float for numbers, lower-cased text for
    keywords).
    """

    __slots__ = ("type", "value", "source", "start", "end")

    def __init__(self, type: str, value, source: TaintedStr, start: int, end: int):
        self.type = type
        self.value = value
        self.source = source
        self.start = start
        self.end = end

    @property
    def text(self) -> TaintedStr:
        return self.source[self.start : self.end]

    def __repr__(self) -> str:
        return f"Token({self.type}, {self.value!r})"


def tokenize(sql) -> List[Token]:
    """Tokenize ``sql`` into a list of tokens ending with an EOF token."""
    if not isinstance(sql, TaintedStr):
        sql = TaintedStr(sql)
    kinds, values, spans = scan(sql)
    return [
        Token(_TYPES[kind], value, sql, start, end)
        for kind, value, (start, end) in zip(kinds, values, spans)
    ]
