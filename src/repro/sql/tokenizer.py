"""SQL tokenizer.

Tokenizes a (possibly tainted) SQL query string while preserving the
character-level policies of every token: each token can cut the
:class:`~repro.tracking.tainted_str.TaintedStr` slice it was read from, so
the SQL-injection filter can ask "does any character of the query's
*structure* carry ``UntrustedData``?" (the second strategy of Section 5.3),
and a string literal's cooked value keeps the policies of its characters,
so the persistence filter can recover them.
"""

from __future__ import annotations

from typing import List, Optional

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

#: Multi- and single-character operators, longest first.
_OPERATORS = ("<>", "!=", "<=", ">=", "=", "<", ">", "+", "-")
_PUNCTUATION = "(),.;*"


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

    def matches(self, type: str, value=None) -> bool:
        if self.type != type:
            return False
        return value is None or self.value == value

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

    while index < length:
        char = text[index]

        if char.isspace():
            index += 1
            continue

        if text.startswith("--", index):
            newline = text.find("\n", index)
            index = length if newline < 0 else newline + 1
            continue

        if text.startswith("/*", index):
            end = text.find("*/", index + 2)
            if end < 0:
                raise SQLError("unterminated comment")
            index = end + 2
            continue

        if char == "'":
            token, index = _read_string(sql, text, index)
            tokens.append(token)
            continue

        if char.isdigit() or (
            char == "." and index + 1 < length and text[index + 1].isdigit()
        ):
            token, index = _read_number(sql, text, index)
            tokens.append(token)
            continue

        if char.isalpha() or char == "_" or char == "`":
            token, index = _read_word(sql, text, index)
            tokens.append(token)
            continue

        if char == ":":
            start = index
            index += 1
            while index < length and (text[index].isalnum() or text[index] == "_"):
                index += 1
            if index == start + 1:
                raise SQLError(
                    f"expected parameter name after ':' at position {start}")
            tokens.append(Token(PARAM, text[start + 1 : index], sql, start, index))
            continue

        matched_op: Optional[str] = None
        for op in _OPERATORS:
            if text.startswith(op, index):
                matched_op = op
                break
        if matched_op:
            tokens.append(Token(OP, "!=" if matched_op == "<>" else matched_op,
                                sql, index, index + len(matched_op)))
            index += len(matched_op)
            continue

        if char in _PUNCTUATION:
            tokens.append(Token(PUNCT, char, sql, index, index + 1))
            index += 1
            continue

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


def _read_number(sql: TaintedStr, text: str, index: int):
    start = index
    seen_dot = False
    while index < len(text) and (
        text[index].isdigit() or (text[index] == "." and not seen_dot)
    ):
        if text[index] == ".":
            seen_dot = True
        index += 1
    literal = text[start:index]
    value = float(literal) if seen_dot else int(literal)
    return Token(NUMBER, value, sql, start, index), index


def _read_word(sql: TaintedStr, text: str, index: int):
    start = index
    if text[index] == "`":
        close = text.find("`", index + 1)
        if close < 0:
            raise SQLError("unterminated quoted identifier")
        return Token(IDENT, text[index + 1 : close], sql, start, close + 1), close + 1
    while index < len(text) and (text[index].isalnum() or text[index] == "_"):
        index += 1
    word = text[start:index]
    lowered = word.lower()
    if lowered in KEYWORDS:
        return Token(KEYWORD, lowered, sql, start, index), index
    return Token(IDENT, word, sql, start, index), index
