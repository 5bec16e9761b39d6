"""Plain bytes are text wherever a value becomes a ``TaintedStr``.

``to_tainted_str`` decodes ``bytes``, ``bytearray`` and a ``memoryview`` of
them as UTF-8, an invalid sequence becoming U+FFFD, as the HTTP channel
does; a ``TaintedBytes`` keeps its policies, and a view's text carries
those of the object it views.  Every caller of it
(``concat``, the sanitizers, the mail transport, the code channel, SQL
literals and text functions) therefore reads bytes as the text they hold,
never as their Python repr (``b'...'``).
"""

import pytest

from repro.core.exceptions import PolicyViolation
from repro.core.policyset import PolicySet
from repro.environment import Environment
from repro.policies import (HTMLSanitized, JSONSanitized, PasswordPolicy,
                            SQLSanitized)
from repro.sql.nodes import quote_literal
from repro.tracking.propagation import concat, policies_of, to_tainted_str
from repro.tracking.tainted_bytes import taint_bytes
from repro.tracking.tainted_str import TaintedStr
from repro.web.sanitize import html_escape, json_encode, sql_quote

PW = PasswordPolicy("owner@example.org")


@pytest.mark.parametrize("value, text", [
    (b"caf\xc3\xa9", "café"),
    (bytearray(b"\xff!"), "�!"),
    (b"", ""),
    (memoryview(b"caf\xc3\xa9"), "café"),
])
def test_to_tainted_str_decodes_plain_bytes(value, text):
    result = to_tainted_str(value)
    assert isinstance(result, TaintedStr)
    assert result == text
    assert not result.policies()


def test_to_tainted_str_keeps_the_policies_of_tainted_bytes():
    result = to_tainted_str(taint_bytes(b"pw", PW))
    assert result == "pw"
    assert result.policies() == PolicySet.of(PW)


def test_concat_joins_bytes_as_text():
    assert concat("a", b"x", bytearray(b"y")) == "axy"


def test_concat_joins_a_memoryview_as_text():
    assert concat("a", memoryview(b"xy")) == "axy"


def test_a_memoryview_carries_the_policies_of_the_bytes_it_views():
    secret = taint_bytes(b"pw:hunter2", PW)
    view = memoryview(secret)[3:]
    assert policies_of(view) == PolicySet.of(PW)
    for result in (to_tainted_str(view), concat(view)):
        assert result == "hunter2"
        assert result.has_policy_type(PasswordPolicy, every_char=True)


def test_a_memoryview_of_a_password_written_to_a_page_is_checked(resin):
    with resin.request(user="eve@x.org") as http:
        with pytest.raises(PolicyViolation):
            http.write(memoryview(taint_bytes(b"hunter2", PW)))
    assert "hunter2" not in http.body()


def test_sql_quote_escapes_the_text_of_bytes():
    quoted = sql_quote(b"o'b")
    assert quoted == "o''b"
    assert quoted.has_policy_type(SQLSanitized)


def test_html_escape_escapes_the_text_of_bytes():
    escaped = html_escape(b"<b>")
    assert escaped == "&lt;b&gt;"
    assert escaped.has_policy_type(HTMLSanitized)


def test_json_encode_encodes_the_text_of_bytes():
    encoded = json_encode(b'say "hi"')
    assert encoded == '"say \\"hi\\""'
    assert encoded.has_policy_type(JSONSanitized)


def test_mail_subject_and_body_are_the_text_of_bytes():
    env = Environment()
    message = env.mail.send("owner@example.org", b"caf\xc3\xa9",
                            bytearray(b"line one\n"))
    assert message.subject == "café"
    assert message.body == "line one\n"


def test_execute_source_runs_the_code_in_bytes():
    env = Environment()
    namespace = env.interpreter.execute_source(b"x = 41 + 1")
    assert namespace["x"] == 42


def test_a_sql_literal_renders_the_text_of_bytes():
    assert quote_literal(b"o'b") == "'o''b'"


def test_sql_text_functions_read_a_bytes_value_as_its_text():
    db = Environment().db
    db.execute_unchecked("CREATE TABLE t (v TEXT)")
    db.query("INSERT INTO t (v) VALUES (:v)", params={"v": b"AbC"})
    rows = db.query("SELECT lower(v) AS l, upper(v) AS u, length(v) AS n "
                    "FROM t").rows
    assert [(row["l"], row["u"], row["n"]) for row in rows] == [
        ("abc", "ABC", 3)]
