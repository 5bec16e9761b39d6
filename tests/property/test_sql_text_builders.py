"""Differential tests for the per-run builders of tainted strings on the SQL
path.

``sql_quote``, ``html_escape``, ``strip_tags``, the tokenizer's string
literals and lazy token text, and ``AutoSanitizingSQLFilter._rewrite`` build
their results from one tainted slice per run of characters.  The
per-character builders they replaced are kept below as the reference
semantics (``escape_reference``, ``strip_tags_reference``,
``tokenize_reference``, ``rewrite_reference``): each walks the input one
character at a time and concatenates one tainted character at a time.  On a
hypothesis corpus of mixed-taint text with ``''`` escapes, HTML
metacharacters and unterminated literals, both must produce the same text,
the same range maps, the same tokens, the same ``SQLError`` messages and the
same ``SQLGuardFilter`` verdicts.  A count-based guard pins the per-run
shape: quoting and tokenizing a literal builds as many ``TaintedStr``
objects at 4096 characters as at 64.
"""

from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.exceptions import InjectionViolation, SQLError
from repro.policies import HTMLSanitized, SQLSanitized, UntrustedData
from repro.security import assertions
from repro.security.assertions import AutoSanitizingSQLFilter, SQLGuardFilter
from repro.sql.tokenizer import (
    EOF,
    IDENT,
    KEYWORD,
    KEYWORDS,
    NUMBER,
    OP,
    PARAM,
    PUNCT,
    STRING,
    tokenize,
)
from repro.tracking.propagation import spread_policies, to_tainted_str
from repro.tracking.tainted_str import TaintedStr, taint_str
from repro.web.sanitize import (
    _HTML_METACHARS,
    _HTML_REPLACEMENTS,
    _escape_chars,
    html_escape,
    sql_quote,
    strip_tags,
)

U1 = UntrustedData("form")
U2 = UntrustedData("cookie")
S = SQLSanitized("upstream")


# -- the per-character reference builders ----------------------------------------

#: Multi- and single-character operators, longest first, and punctuation.
_OPERATORS = ("<>", "!=", "<=", ">=", "=", "<", ">", "+", "-")
_PUNCTUATION = "(),.;*"


def escape_reference(text, replacements):
    result = TaintedStr("")
    for char in text:
        replacement = replacements.get(str(char))
        if replacement is None:
            result = result + char
        else:
            result = result + spread_policies(replacement, char.policies())
    return result


def sql_quote_reference(value):
    escaped = escape_reference(to_tainted_str(value), {"'": "''"})
    return escaped.with_policy(SQLSanitized("sql_quote")) if escaped else escaped


def html_escape_reference(value):
    replacements = {
        "&": "&amp;",
        "<": "&lt;",
        ">": "&gt;",
        '"': "&quot;",
        "'": "&#x27;",
    }
    text = escape_reference(to_tainted_str(value), replacements)
    return text.with_policy(HTMLSanitized("html_escape")) if text else text


def strip_tags_reference(value):
    result = TaintedStr("")
    in_tag = False
    for char in to_tainted_str(value):
        if char == "<":
            in_tag = True
            continue
        if char == ">" and in_tag:
            in_tag = False
            continue
        if not in_tag:
            result = result + char
    return result


def tokenize_reference(sql):
    """``(type, value, start, end, text)`` per token, EOF last.  Every text
    is sliced eagerly; a string literal's value and a quoted identifier are
    read one character at a time."""
    if not isinstance(sql, TaintedStr):
        sql = TaintedStr(sql)
    text = str(sql)
    length = len(text)
    tokens = []
    index = 0

    def emit(type, value, start, end):
        tokens.append((type, value, start, end, sql[start:end]))

    while index < length:
        char = text[index]
        start = index
        if char.isspace():
            index += 1
        elif text.startswith("--", index):
            while index < length and text[index] != "\n":
                index += 1
            index += 1
        elif text.startswith("/*", index):
            index += 2
            while not text.startswith("*/", index):
                if index >= length:
                    raise SQLError("unterminated comment")
                index += 1
            index += 2
        elif char == "'":
            index += 1
            value = TaintedStr("")
            while True:
                if index >= length:
                    raise SQLError("unterminated string literal")
                if text[index] == "'":
                    if index + 1 < length and text[index + 1] == "'":
                        value = value + sql[index]
                        index += 2
                        continue
                    index += 1
                    break
                value = value + sql[index]
                index += 1
            emit(STRING, value, start, index)
        elif char.isdecimal() or (
            char == "." and index + 1 < length and text[index + 1].isdecimal()
        ):
            seen_dot = False
            while index < length and (
                text[index].isdecimal() or (text[index] == "." and not seen_dot)
            ):
                seen_dot = seen_dot or text[index] == "."
                index += 1
            literal = text[start:index]
            emit(NUMBER, float(literal) if seen_dot else int(literal), start, index)
        elif char == "`":
            index += 1
            word = ""
            while True:
                if index >= length:
                    raise SQLError("unterminated quoted identifier")
                if text[index] == "`":
                    break
                word += text[index]
                index += 1
            index += 1
            emit(IDENT, word, start, index)
        elif char.isalpha() or char == "_":
            while index < length and (text[index].isalnum() or text[index] == "_"):
                index += 1
            word = text[start:index]
            if word.lower() in KEYWORDS:
                emit(KEYWORD, word.lower(), start, index)
            else:
                emit(IDENT, word, start, index)
        elif char == ":":
            index += 1
            while index < length and (text[index].isalnum() or text[index] == "_"):
                index += 1
            if index == start + 1:
                raise SQLError(f"expected parameter name after ':' at position {start}")
            emit(PARAM, text[start + 1 : index], start, index)
        else:
            op = next((op for op in _OPERATORS if text.startswith(op, index)), None)
            if op:
                index += len(op)
                emit(OP, "!=" if op == "<>" else op, start, index)
            elif char in _PUNCTUATION:
                index += 1
                emit(PUNCT, char, start, index)
            else:
                raise SQLError(f"unexpected character {char!r} at position {index}")
    emit(EOF, None, length, length)
    return tokens


def rewrite_reference(sql):
    rewritten = TaintedStr("")
    text = str(sql)
    inside_literal = False
    index = 0
    while index < len(sql):
        if sql.policies_at(index).has_type(UntrustedData):
            run_start = index
            while index < len(sql) and sql.policies_at(index).has_type(UntrustedData):
                index += 1
            run = sql_quote_reference(sql[run_start:index])
            if inside_literal:
                rewritten = rewritten + run
            else:
                rewritten = rewritten + "'" + run + "'"
            continue
        if text[index] == "'":
            inside_literal = not inside_literal
        rewritten = rewritten + sql[index]
        index += 1
    return rewritten


# -- corpus ------------------------------------------------------------------------

SQL_FRAGMENTS = [
    "SELECT", "a", "b_1", " ", "  ", "\n", "FROM", "t", "WHERE", "AND", "OR",
    "=", "<>", "!=", "<=", ">", "+", "-", ",", "(", ")", "*", ".", ";",
    "'", "''", "it''s", "'x'", "bob", "1", "42", "2.5", ".5",
    "`", "`c d`", ":p", ":", "--", "/*", "*/", "@", "lower(", "<b>", "&",
    "\u00b2", "\u00bd", "\u0661", "\u00e9", "\u00a0",
]
HTML_FRAGMENTS = [
    "<", ">", "<b>", "</b>", "&", "&amp;", '"', "'", "''", "text", " ", "a=b",
    "<a href='x'>", "x > y", "",
]
POLICY_CHOICES = [(), (), (U1,), (U2,), (U1, S), (S,)]


def _tainted(segments):
    result = TaintedStr("")
    for text, policies in segments:
        result = result + taint_str(text, list(policies))
    return result


def mixed_taint(fragments, alphabet="ab '<>&\"`"):
    segment = st.tuples(
        st.one_of(st.sampled_from(fragments), st.text(alphabet=alphabet, max_size=5)),
        st.sampled_from(POLICY_CHOICES),
    )
    return st.lists(segment, max_size=10).map(_tainted)


# Queries that tokenize: structure tokens and string literals whose bodies
# mix taint around ``''`` escapes, separated by spaces.
STRUCTURE = [
    "SELECT", "a", "FROM", "t", "WHERE", "=", "<>", "1", "2.5", ",", "(", ")",
    "*", "`c d`", ":p", "OR",
]
LITERAL_PARTS = ["a", "bob", "''", "it''s", "''''", " ", "<b>", "&", "--", "x y"]
structure_tokens = st.tuples(
    st.sampled_from(STRUCTURE), st.sampled_from(POLICY_CHOICES)
).map(lambda item: _tainted([item]))
literals = mixed_taint(LITERAL_PARTS, alphabet="ab <>&").map(
    lambda body: "'" + body + "'"
)
valid_sql = st.lists(st.one_of(structure_tokens, literals), max_size=8).map(
    TaintedStr(" ").join
)

sql_texts = st.one_of(mixed_taint(SQL_FRAGMENTS), valid_sql)
html_texts = mixed_taint(HTML_FRAGMENTS)


def assert_same_str(actual, expected):
    assert isinstance(actual, TaintedStr)
    assert str(actual) == str(expected)
    assert actual.rangemap == expected.rangemap


def type_of(value):
    return str if isinstance(value, str) else type(value)


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (SQLError, InjectionViolation) as exc:
        return (type(exc).__name__, str(exc))


# -- the differential tests ------------------------------------------------------------


class TestSanitizers:
    @settings(max_examples=200)
    @given(text=st.one_of(sql_texts, html_texts))
    def test_sql_quote_matches_reference(self, text):
        assert_same_str(sql_quote(text), sql_quote_reference(text))

    @settings(max_examples=200)
    @given(text=html_texts)
    def test_html_escape_matches_reference(self, text):
        assert_same_str(html_escape(text), html_escape_reference(text))

    @settings(max_examples=200)
    @given(text=html_texts)
    def test_strip_tags_matches_reference(self, text):
        assert_same_str(strip_tags(text), strip_tags_reference(text))

    def test_plain_input_without_metacharacters_is_returned_as_is(self):
        text = taint_str("no metacharacters here", U1)
        assert _escape_chars(text, _HTML_REPLACEMENTS, _HTML_METACHARS) is text
        assert strip_tags(text) is text


class TestTokenizer:
    @settings(max_examples=300)
    @given(sql=sql_texts)
    @example(sql="SELECT a -- trailing comment")
    @example(sql="a-b")
    @example(sql="SELECT /* one\ntwo */ a")
    @example(sql="''")
    @example(sql="''''")
    @example(sql="SELECT a FROM t WHERE a = :")
    @example(sql="\u00b2a")
    @example(sql="SELECT a \n\t ")
    @example(sql="SELECT 'a''' , 'b'")
    @example(sql="SELECT 'a''")
    def test_tokens_match_reference(self, sql):
        actual = outcome(tokenize, sql)
        expected = outcome(tokenize_reference, sql)
        assert actual[0] == expected[0]
        if actual[0] != "ok":
            assert actual[1] == expected[1]
            return
        assert len(actual[1]) == len(expected[1])
        for token, (type, value, start, end, text) in zip(actual[1], expected[1]):
            assert (token.type, token.start, token.end) == (type, start, end)
            assert type_of(token.value) is type_of(value)
            if type == STRING:
                assert_same_str(token.value, value)
            else:
                assert token.value == value
            assert_same_str(token.text, text)

    @pytest.mark.parametrize(
        "sql",
        ["SELECT 'oops", "SELECT a FROM `t", "SELECT /* x", "SELECT :", "SELECT @",
         "SELECT a FROM t WHERE a = :", "\u00b2a", "SELECT 'a''"],
    )
    def test_error_messages_match_reference(self, sql):
        with pytest.raises(SQLError) as actual:
            tokenize(sql)
        with pytest.raises(SQLError) as expected:
            tokenize_reference(sql)
        assert str(actual.value) == str(expected.value)


class TestAutoSanitizingRewrite:
    @settings(max_examples=200)
    @given(sql=sql_texts)
    def test_rewrite_matches_reference(self, sql):
        assert_same_str(AutoSanitizingSQLFilter()._rewrite(sql), rewrite_reference(sql))

    def test_adjacent_untrusted_ranges_form_one_run(self):
        sql = _tainted([("x = ", ()), ("ab", (U1,)), ("c'd", (U2,)), (" y", ())])
        rewritten = AutoSanitizingSQLFilter()._rewrite(sql)
        assert str(rewritten) == "x = 'abc''d' y"
        assert_same_str(rewritten, rewrite_reference(sql))


def _reference_tokens(sql):
    return [
        SimpleNamespace(type=type, text=text)
        for type, _, _, _, text in tokenize_reference(sql)
    ]


class TestGuardVerdicts:
    @settings(max_examples=200)
    @given(
        template=st.lists(st.sampled_from(SQL_FRAGMENTS), max_size=6).map("".join),
        payload=st.one_of(sql_texts, html_texts),
        raw=sql_texts,
        strategy=st.sampled_from(["structure", "sanitizer"]),
    )
    def test_sql_guard_verdicts_match_reference(self, template, payload, raw, strategy):
        guard = SQLGuardFilter(strategy)
        query = template + "'" + sql_quote(payload) + "' " + raw
        actual = outcome(guard._check_query, query)
        reference_query = template + "'" + sql_quote_reference(payload) + "' " + raw
        with mock.patch.object(assertions, "tokenize", _reference_tokens):
            expected = outcome(guard._check_query, reference_query)
        assert actual == expected


# -- per-run shape: the object count does not grow with the literal ------------------


def _tainted_strs_built(fn):
    built = 0
    original = TaintedStr.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return original(cls, *args, **kwargs)

    with mock.patch.object(TaintedStr, "__new__", staticmethod(counting_new)):
        fn()
    return built


def _quote_and_tokenize(length, escapes=4):
    run = "x" * (length // escapes - 1) + "'"
    payload = taint_str(run * escapes, U1)

    def work():
        query = "SELECT email FROM users WHERE email = '" + sql_quote(payload) + "'"
        tokens = tokenize(query)
        assert str(tokens[-2].value) == str(payload)

    return work


def test_tainted_str_count_does_not_grow_with_literal_length():
    short = _tainted_strs_built(_quote_and_tokenize(64))
    long = _tainted_strs_built(_quote_and_tokenize(4096))
    assert short == long
