"""Unit tests for the alternative injection-defence strategies of
Sections 5.3 and 5.4: the auto-sanitizing SQL filter, the structure-checking
HTML filter, and the JSON output guard."""

import pytest

from repro import Resin
from repro.channels.sqlchan import Database
from repro.core.exceptions import InjectionViolation
from repro.security.assertions import (AutoSanitizingSQLFilter,
                                       HTMLStructureGuardFilter,
                                       JSONGuardFilter, mark_untrusted)
from repro.sql.engine import Engine
from repro.tracking.propagation import concat
from repro.tracking.tainted_str import TaintedStr
from repro.web.sanitize import html_escape, json_encode


@pytest.fixture
def db():
    db = Database(Engine())
    db.execute_unchecked("CREATE TABLE users (name TEXT, role TEXT)")
    db.query("INSERT INTO users (name, role) VALUES ('alice', 'admin')")
    db.query("INSERT INTO users (name, role) VALUES ('bob', 'user')")
    return db


class TestAutoSanitizingSQLFilter:
    def test_injection_neutralized_instead_of_rejected(self, db):
        db.add_filter(AutoSanitizingSQLFilter())
        evil = mark_untrusted("x' OR '1'='1")
        result = db.query(concat(
            "SELECT name FROM users WHERE name = '", evil, "'"))
        # The query executes, but the injected OR no longer changes the
        # command structure: no rows match the literal payload.
        assert len(result.rows) == 0

    def test_untrusted_bare_value_becomes_literal(self, db):
        db.add_filter(AutoSanitizingSQLFilter())
        evil = mark_untrusted("'1'='1' OR role = 'admin'")
        result = db.query(concat(
            "SELECT name FROM users WHERE role = ", evil))
        assert len(result.rows) == 0

    def test_trusted_queries_unchanged(self, db):
        db.add_filter(AutoSanitizingSQLFilter())
        result = db.query("SELECT name FROM users WHERE role = 'admin'")
        assert [str(r["name"]) for r in result] == ["alice"]

    def test_untrusted_data_inside_string_literal_left_alone(self, db):
        db.add_filter(AutoSanitizingSQLFilter())
        needle = mark_untrusted("alice")
        result = db.query(concat(
            "SELECT role FROM users WHERE name = '", needle, "'"))
        assert [str(r["role"]) for r in result] == ["admin"]

    def test_plain_str_query_passthrough(self, db):
        flt = AutoSanitizingSQLFilter()
        assert flt.filter_func(lambda q: q, ("SELECT 1",), {}) == "SELECT 1"


class TestHTMLStructureGuardFilter:
    def test_untrusted_tag_blocked(self):
        guard = HTMLStructureGuardFilter()
        payload = mark_untrusted("<script>alert(1)</script>")
        with pytest.raises(InjectionViolation):
            guard.filter_write(concat("<div>", payload, "</div>"))

    def test_untrusted_attribute_injection_blocked(self):
        guard = HTMLStructureGuardFilter()
        payload = mark_untrusted('" onmouseover="steal()')
        with pytest.raises(InjectionViolation):
            guard.filter_write(concat('<a href="', payload, '">link</a>'))

    def test_untrusted_inside_script_element_blocked(self):
        guard = HTMLStructureGuardFilter()
        payload = mark_untrusted("1; steal()")
        with pytest.raises(InjectionViolation):
            guard.filter_write(concat("<script>var x = ", payload,
                                      ";</script>"))

    def test_untrusted_text_content_allowed(self):
        guard = HTMLStructureGuardFilter()
        comment = mark_untrusted("I liked this paper a lot")
        page = guard.filter_write(concat("<p>", comment, "</p>"))
        assert "liked" in str(page)

    def test_escaped_payload_allowed(self):
        guard = HTMLStructureGuardFilter()
        payload = mark_untrusted("<script>alert(1)</script>")
        guard.filter_write(concat("<p>", html_escape(payload), "</p>"))

    def test_trusted_markup_allowed(self):
        guard = HTMLStructureGuardFilter()
        guard.filter_write(TaintedStr("<script>trusted()</script>"))
        assert guard.filter_write("plain text") == "plain text"


class TestJSONGuardFilter:
    def test_raw_untrusted_value_blocked(self):
        guard = JSONGuardFilter()
        payload = mark_untrusted('", "admin": true, "x": "')
        with pytest.raises(InjectionViolation):
            guard.filter_write(concat('{"comment": "', payload, '"}'))

    def test_encoded_value_allowed(self):
        guard = JSONGuardFilter()
        payload = mark_untrusted('", "admin": true, "x": "')
        body = guard.filter_write(concat('{"comment": ',
                                         json_encode(payload), "}"))
        assert str(body).startswith('{"comment": ')

    def test_plain_json_allowed(self):
        guard = JSONGuardFilter()
        assert guard.filter_write('{"ok": 1}') == '{"ok": 1}'


def alternating(pieces):
    """One write or query of ``pieces``: even ones trusted, odd ones
    untrusted."""
    return concat(*(mark_untrusted(piece) if index % 2 else piece
                    for index, piece in enumerate(pieces)))


class TestLiteralContextFromTheTokenizer:
    """The auto-sanitizer asks the SQL tokenizer where the trusted template
    has string literals, so a quote in a comment does not flip its
    context."""

    @pytest.mark.parametrize("template", [
        "SELECT name FROM users WHERE role = 'user' /* it's */ AND name = ",
        "SELECT name FROM users WHERE role = 'user' -- it's\n AND name = ",
    ], ids=["block-comment", "line-comment"])
    def test_a_quote_in_a_comment_leaves_the_payload_quoted(self, db,
                                                            template):
        db.add_filter(AutoSanitizingSQLFilter())
        result = db.query(alternating([template, "name OR 1=1"]))
        assert len(result.rows) == 0

    def test_a_payload_that_ends_a_comment_is_refused(self, db):
        db.add_filter(AutoSanitizingSQLFilter())
        with pytest.raises(InjectionViolation):
            db.query(alternating(["SELECT name FROM users WHERE role = "
                                  "'user' -- ", "x\n OR 1=1 --", "\n"]))


class TestHTMLStructureThroughTheNamedAssertion:
    @pytest.mark.parametrize("pieces", [
        ['<a title=">" href="', "javascript:alert(1)", '">x</a>'],
        ["<style>", "body { background: url(javascript:x) }", "</style>"],
    ], ids=["quoted-gt-in-an-attribute", "style-content"])
    def test_refused(self, pieces):
        resin = Resin()
        page = resin.channel("http")
        resin.assertion("xss", strategy="structure").install(page)
        with pytest.raises(InjectionViolation):
            page.write(alternating(pieces))


#: Pieces of one write (trusted, untrusted, trusted, ...) and whether the
#: structure guard lets it pass.  Each case has one reading under HTML5, so
#: no patch release of ``html.parser`` should flip a verdict.
HTML_VERDICTS = {
    "multi-line-text": (["<ul>\n<li>one</li>\n<li>", "two", "</li>\n</ul>"],
                        True),
    "text-after-a-multi-line-tag": (['<p\n  class="x">', "hi", "</p>"], True),
    "attribute-after-lines": (['<p>one</p>\n<p>two</p>\n<a href="', "x",
                               '">y</a>'], False),
    "crlf-text": (["<p>\r\nfirst\r\n</p>\r\n<p>", "second", "</p>\r\n"],
                  True),
    "crlf-attribute": (['<p>\r\n</p>\r\n<b title="', "x", '">y</b>'], False),
    "attribute-value": (['<a title="', "hello", '">x</a>'], False),
    "comment": (["<p>a</p><!-- ", "note", " --><p>b</p>"], False),
    "script-content": (['<script>var s = "', "hi", '";</script>'], False),
    "self-closed-script-content": (["<script/>", "alert(1)", "</script>"],
                                   False),
    "script-after-a-spaced-end-tag": (['<script>s = "</ script>"; t = "',
                                       '"; alert(1); //', '";</script>'],
                                      False),
    "nul-after-a-tag-name": (["<p>", "<a\0 onmouseover=alert(1)>x</a>",
                              "</p>"], False),
    "text-after-a-nul-tag": (["<p><a\0 title=", "x", ">y</a></p>"], False),
    "escaped-payload": (["<p>", str(html_escape("<script>x()</script>")),
                         "</p>"], True),
    "less-than-in-text": (["<p>", "a < b", "</p>"], True),
    "greater-than-in-text": (["<p>", "a > b", "</p>"], True),
    "ampersand-in-text": (["<p>", "fish & chips", "</p>"], True),
    "references-in-text": (["<p>", "&amp; &#60; &#x3e; &lt;", "</p>"], True),
    "tag-in-text": (["<p>", "<b>x</b>", "</p>"], False),
    "unfinished-attribute": (['<p>x</p><a href="', "javascript:alert(1)"],
                             False),
    "trailing-img": (["<p>hi</p>", "<img src=x onerror=alert(1)"], False),
    "trailing-ampersand": (["<p>Tom ", "&"], True),
    "trailing-reference-then-tag": (["<p>", "&#<b>x"], False),
}


class TestHTMLStructureVerdicts:
    @pytest.mark.parametrize("pieces, passes", list(HTML_VERDICTS.values()),
                             ids=list(HTML_VERDICTS))
    def test_verdict(self, pieces, passes):
        write = alternating(pieces)
        guard = HTMLStructureGuardFilter()
        if passes:
            assert guard.filter_write(write) is write
        else:
            with pytest.raises(InjectionViolation):
                guard.filter_write(write)
