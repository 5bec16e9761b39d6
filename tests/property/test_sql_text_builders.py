"""Differential tests for the per-run builders of tainted strings on the SQL
path, and for the SQL injection assertions that read the tokenizer.

``sql_quote``, ``html_escape``, the tokenizer's string literals and
``AutoSanitizingSQLFilter._rewrite`` build their results from one tainted
slice per run of characters.  The per-character builders they replaced are
kept below as the reference semantics (``escape_reference``,
``tokenize_reference``, ``rewrite_reference``): each walks the input one
character at a time and concatenates one tainted character at a time.  On a
hypothesis corpus of mixed-taint text with ``''`` escapes, HTML
metacharacters and unterminated literals, both must produce the same text,
the same range maps, the same tokens, the same ``SQLError`` messages and the
same ``SQLGuardFilter`` verdicts and messages, against reference guards
over ``tokenize_reference``.  A property checks that a rewritten query
leaves no untrusted character in its structure.  A count-based guard pins
the per-run shape: quoting and scanning a literal builds as many
``TaintedStr`` objects at 4096 characters as at 64.
"""

from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.exceptions import InjectionViolation, SQLError
from repro.core.policyset import PolicySet
from repro.policies import HTMLSanitized, SQLSanitized, UntrustedData
from repro.security.assertions import AutoSanitizingSQLFilter, SQLGuardFilter
from repro.sql.tokenizer import EOF, IDENT, KEYWORDS, NUMBER, PARAM, STRING, scan
from repro.tracking.propagation import spread_policies, to_tainted_str
from repro.tracking.tainted_str import TaintedStr, taint_str
from repro.web.sanitize import (
    _HTML_METACHARS,
    _HTML_REPLACEMENTS,
    _escape_chars,
    html_escape,
    sql_quote,
)

U1 = UntrustedData("form")
U2 = UntrustedData("cookie")
S = SQLSanitized("upstream")


# -- the per-character reference builders ----------------------------------------

#: The reference's token types for keywords, operators and punctuation;
#: ``scan`` gives each such token its value as its kind instead.
KEYWORD, OP, PUNCT = "KEYWORD", "OP", "PUNCT"

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


def structure_guard_reference(sql):
    """``SQLGuardFilter``'s structure strategy over ``tokenize_reference``:
    every token but a string literal or a number is structure."""
    for type, _, _, _, text in tokenize_reference(sql):
        if type not in (STRING, NUMBER) and text.has_policy_type(UntrustedData):
            raise InjectionViolation(
                f"user input reached SQL query structure near {str(text)[:40]!r}"
            )


def sanitizer_guard_reference(sql):
    """``SQLGuardFilter``'s sanitizer strategy, one character at a time: the
    message shows the run of equal policy sets from the first untrusted
    character without ``SQLSanitized``."""
    policies = [sql.policies_at(index) for index in range(len(sql))]
    for start, here in enumerate(policies):
        if here.has_type(UntrustedData) and not here.has_type(SQLSanitized):
            stop = start
            while stop < len(sql) and policies[stop] == here:
                stop += 1
            raise InjectionViolation(
                f"unsanitized user input in SQL query near {str(sql)[start:stop][:40]!r}"
            )


def guard_reference(strategy, sql):
    if strategy == "sanitizer":
        sanitizer_guard_reference(sql)
    else:
        structure_guard_reference(sql)


def rewrite_reference(sql):
    """Each maximal run of untrusted characters, escaped where the trusted
    template (the query with each untrusted character a space) has a string
    literal, and quoted as a literal elsewhere; the result must pass the
    structure guard.  A query without untrusted characters comes back as it
    is."""
    text = str(sql)
    untrusted = [sql.policies_at(index).has_type(UntrustedData) for index in range(len(sql))]
    if not any(untrusted):
        return sql
    template = ""
    for index, char in enumerate(text):
        template += " " if untrusted[index] else char
    in_literal = [False] * len(template)
    for type, _, start, end, _ in tokenize_reference(template):
        if type == STRING:
            in_literal[start:end] = [True] * (end - start)
    rewritten = TaintedStr("")
    index = 0
    while index < len(sql):
        if untrusted[index]:
            run_start = index
            while index < len(sql) and untrusted[index]:
                index += 1
            run = sql_quote_reference(sql[run_start:index])
            if in_literal[run_start]:
                rewritten = rewritten + run
            else:
                rewritten = rewritten + "'" + run + "'"
            continue
        rewritten = rewritten + sql[index]
        index += 1
    structure_guard_reference(rewritten)
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

# Several runs of distinct policies, each with metacharacters at its edges.
_EDGES = st.sampled_from(["", "'", "''", "&", "<", '"'])
policy_runs = st.lists(
    st.tuples(
        st.tuples(_EDGES, st.text(alphabet="ab '<&", max_size=4), _EDGES).map(
            "".join
        ),
        st.sampled_from(POLICY_CHOICES),
    ),
    min_size=2,
    max_size=6,
)


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

    @settings(max_examples=300)
    @given(runs=policy_runs)
    def test_each_character_keeps_its_policies(self, runs):
        """Per character: the text ``str`` escaping gives, and each output
        character tagged with its input character's policies plus the
        marker.  Metacharacters sit at the edges of runs."""
        text = _tainted(runs)
        for sanitize, replacements, marker in (
            (sql_quote, {"'": "''"}, SQLSanitized("sql_quote")),
            (html_escape, _HTML_REPLACEMENTS, HTMLSanitized("html_escape")),
        ):
            expected_text, expected_policies = [], []
            for index, char in enumerate(str(text)):
                out = replacements.get(char, char)
                expected_text.append(out)
                policies = text.policies_at(index).union(PolicySet.of(marker))
                expected_policies.extend([policies] * len(out))
            result = sanitize(text)
            assert str(result) == "".join(expected_text)
            assert [
                result.policies_at(index) for index in range(len(result))
            ] == expected_policies

    def test_plain_input_without_metacharacters_is_returned_as_is(self):
        text = taint_str("no metacharacters here", U1)
        assert _escape_chars(text, _HTML_REPLACEMENTS, _HTML_METACHARS) is text


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
        actual = outcome(scan, sql)
        expected = outcome(tokenize_reference, sql)
        assert actual[0] == expected[0]
        if actual[0] != "ok":
            assert actual[1] == expected[1]
            return
        kinds, values, spans = actual[1]
        assert len(kinds) == len(values) == len(spans) == len(expected[1])
        sql = TaintedStr(sql)
        for kind, scanned, (scan_start, scan_end), token in zip(
            kinds, values, spans, expected[1]
        ):
            type, value, start, end, text = token
            assert kind == (value if type in (KEYWORD, OP, PUNCT) else type)
            assert (scan_start, scan_end) == (start, end)
            assert type_of(scanned) is type_of(value)
            if type == STRING:
                assert_same_str(scanned, value)
            else:
                assert scanned == value
            assert_same_str(sql[scan_start:scan_end], text)

    @pytest.mark.parametrize(
        "sql",
        ["SELECT 'oops", "SELECT a FROM `t", "SELECT /* x", "SELECT :", "SELECT @",
         "SELECT a FROM t WHERE a = :", "\u00b2a", "SELECT 'a''"],
    )
    def test_error_messages_match_reference(self, sql):
        with pytest.raises(SQLError) as actual:
            scan(sql)
        with pytest.raises(SQLError) as expected:
            tokenize_reference(sql)
        assert str(actual.value) == str(expected.value)


# Rewrite corpus: trusted templates with comments that hold quotes, ``''``
# escapes and backquoted names, around untrusted payloads that hold quotes,
# newlines and comment openers.
REWRITE_TEMPLATES = [
    "SELECT a FROM t WHERE b = ", " AND c = ", "/* it's */", "-- x\n",
    "-- it's\n", "'it''s'", "'", "`it's`", "`", " ", "1", "(", ")", "\n", "--",
]
REWRITE_PAYLOADS = [
    "'", "''", "\n", "--", "/*", "*/", "1 OR 1=1", "x", " ", "`", ";", "\n OR 1=1 --",
]
template_texts = st.lists(st.sampled_from(REWRITE_TEMPLATES), max_size=4).map("".join)
payload_texts = st.lists(
    st.sampled_from(REWRITE_PAYLOADS), min_size=1, max_size=3
).map("".join)
rewrite_pieces = st.tuples(
    st.lists(st.tuples(template_texts, payload_texts), min_size=1, max_size=3),
    template_texts,
).map(lambda parts: [piece for pair in parts[0] for piece in pair] + [parts[1]])


def alternating(pieces):
    """The query of ``pieces``: even ones trusted, odd ones untrusted."""
    return _tainted(
        (piece, (U1,) if index % 2 else ()) for index, piece in enumerate(pieces)
    )


class TestAutoSanitizingRewrite:
    @settings(max_examples=200)
    @given(sql=sql_texts)
    def test_rewrite_matches_reference(self, sql):
        actual = outcome(AutoSanitizingSQLFilter()._rewrite, sql)
        expected = outcome(rewrite_reference, sql)
        assert actual[0] == expected[0]
        if actual[0] == "ok":
            assert_same_str(actual[1], expected[1])
        else:
            assert actual[1] == expected[1]

    @settings(max_examples=300)
    @given(pieces=rewrite_pieces)
    @example(pieces=["/* it's */", "1 OR 1=1"])
    @example(pieces=["-- it's\n", "1 OR 1=1"])
    @example(pieces=["SELECT a FROM t WHERE b = 'x' -- ", "x\n OR 1=1 --", "\n"])
    @example(pieces=["SELECT `a ", "` OR 1=1 --", " b` FROM t"])
    def test_rewrite_leaves_no_untrusted_structure(self, pieces):
        sql = alternating(pieces)
        try:
            rewritten = AutoSanitizingSQLFilter()._rewrite(sql)
        except (InjectionViolation, SQLError):
            return
        for type, _, _, _, text in tokenize_reference(rewritten):
            assert type in (STRING, NUMBER) or not text.has_policy_type(UntrustedData)

    @pytest.mark.parametrize(
        "pieces",
        [
            ["SELECT `a ", "` OR 1=1 --", " b` FROM t"],
            ["SELECT a FROM t /* ", "*/ OR 1=1 /*", " */"],
        ],
        ids=["ends-a-backquoted-name", "ends-a-block-comment"],
    )
    def test_a_run_that_still_reaches_structure_raises(self, pieces):
        with pytest.raises(InjectionViolation):
            AutoSanitizingSQLFilter()._rewrite(alternating(pieces))

    def test_adjacent_untrusted_ranges_form_one_run(self):
        sql = _tainted([("x = ", ()), ("ab", (U1,)), ("c'd", (U2,)), (" y", ())])
        rewritten = AutoSanitizingSQLFilter()._rewrite(sql)
        assert str(rewritten) == "x = 'abc''d' y"
        assert_same_str(rewritten, rewrite_reference(sql))


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
        expected = outcome(guard_reference, strategy, reference_query)
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


def _quote_and_scan(length, escapes=4):
    run = "x" * (length // escapes - 1) + "'"
    payload = taint_str(run * escapes, U1)

    def work():
        query = "SELECT email FROM users WHERE email = '" + sql_quote(payload) + "'"
        _, values, _ = scan(query)
        assert str(values[-2]) == str(payload)

    return work


def test_tainted_str_count_does_not_grow_with_literal_length():
    short = _tainted_strs_built(_quote_and_scan(64))
    long = _tainted_strs_built(_quote_and_scan(4096))
    assert short == long
