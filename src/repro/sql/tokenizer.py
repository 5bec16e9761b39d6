"""SQL tokenizer.

Tokenizes a (possibly tainted) SQL query string while preserving the
character-level policies of every token: each token can cut the
:class:`~repro.tracking.tainted_str.TaintedStr` slice it was read from, so
the SQL-injection filter can ask "does any character of the query's
*structure* carry ``UntrustedData``?" (the second strategy of Section 5.3),
and a string literal's cooked value keeps the policies of its characters,
so the persistence filter can recover them.

Words, numbers, operators and punctuation, with the whitespace before
them, are read by one match of one compiled pattern; string literals,
backquoted identifiers, ``:params`` and comments keep their own branches.
"""

from __future__ import annotations

import re
from typing import List

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

#: Leading whitespace, then optionally one common token in its own group.
#: ``\w`` is ``str.isalnum()`` or ``_``, ``\d`` is ``str.isdecimal()`` (what
#: ``int()`` accepts) and ``\s`` is ``str.isspace()``; the scan loop checks
#: that a word starts with a letter or ``_``.  A ``-`` that starts a ``--``
#: comment is left to the comment branch.
_SCAN = re.compile(
    r"\s*(?:"
    r"([^\W\d]\w*)"  # 1: word
    r"|(\d+(?:\.\d*)?|\.\d+)"  # 2: number
    r"|(<>|!=|<=|>=|[=<>+]|-(?!-))"  # 3: operator
    r"|([(),.;*])"  # 4: punctuation
    r")?"
).match
_WORD, _NUMBER, _OPERATOR = 1, 2, 3


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
    tokens: List[Token] = []
    index = 0
    length = len(sql)
    text = str(sql)

    while True:
        match = _SCAN(text, index)
        group = match.lastindex
        if group is not None:
            start, index = match.span(group)
            lexeme = text[start:index]
            if group == _WORD:
                lowered = lexeme.lower()
                if lowered in KEYWORDS:
                    tokens.append(Token(KEYWORD, lowered, sql, start, index))
                    continue
                if not (lexeme[0].isalpha() or lexeme[0] == "_"):
                    raise SQLError(
                        f"unexpected character {lexeme[0]!r} at position {start}"
                    )
                tokens.append(Token(IDENT, lexeme, sql, start, index))
            elif group == _NUMBER:
                value = float(lexeme) if "." in lexeme else int(lexeme)
                tokens.append(Token(NUMBER, value, sql, start, index))
            elif group == _OPERATOR:
                value = "!=" if lexeme == "<>" else lexeme
                tokens.append(Token(OP, value, sql, start, index))
            else:
                tokens.append(Token(PUNCT, lexeme, sql, start, index))
            continue

        index = match.end()
        if index >= length:
            break
        char = text[index]

        if text.startswith("--", index):
            newline = text.find("\n", index)
            index = length if newline < 0 else newline + 1
        elif text.startswith("/*", index):
            end = text.find("*/", index + 2)
            if end < 0:
                raise SQLError("unterminated comment")
            index = end + 2
        elif char == "'":
            token, index = _read_string(sql, text, index)
            tokens.append(token)
        elif char == "`":
            close = text.find("`", index + 1)
            if close < 0:
                raise SQLError("unterminated quoted identifier")
            name = text[index + 1 : close]
            tokens.append(Token(IDENT, name, sql, index, close + 1))
            index = close + 1
        elif char == ":":
            start = index
            index += 1
            while index < length and (text[index].isalnum() or text[index] == "_"):
                index += 1
            if index == start + 1:
                raise SQLError(f"expected parameter name after ':' at position {start}")
            tokens.append(Token(PARAM, text[start + 1 : index], sql, start, index))
        else:
            raise SQLError(f"unexpected character {char!r} at position {index}")

    tokens.append(Token(EOF, None, sql, length, length))
    return tokens


def _read_string(sql: TaintedStr, text: str, index: int):
    """Read a single-quoted string literal with ``''`` escaping.

    The cooked value is assembled from tainted slices of the source so that
    the literal's characters keep their policies: one slice per run between
    ``''`` escapes (each run keeps the first quote of its escape), joined
    once.
    """
    start = index
    cursor = index + 1
    pieces = []
    while True:
        quote = text.find("'", cursor)
        if quote < 0:
            raise SQLError("unterminated string literal")
        if not text.startswith("'", quote + 1):
            break
        pieces.append(sql[cursor : quote + 1])
        cursor = quote + 2
    value = sql[cursor:quote]
    if pieces:
        pieces.append(value)
        value = TaintedStr("").join(pieces)
    return Token(STRING, value, sql, start, quote + 1), quote + 1
