"""Sanitization functions.

The paper's first SQL-injection / XSS strategy (Section 5.3) changes the
application's *existing* sanitization functions to attach a ``SQLSanitized``
or ``HTMLSanitized`` policy to the freshly sanitized data.  These are those
sanitizers: each performs the usual escaping and then marks every character
of the result.

Note that the ``UntrustedData`` policy is deliberately *not* removed: keeping
it lets an assertion distinguish data sanitized for SQL from data sanitized
for HTML (using the wrong sanitizer still trips the assertion).
"""

from __future__ import annotations

import json
import re

from ..policies.untrusted import HTMLSanitized, JSONSanitized, SQLSanitized
from ..tracking.propagation import spread_policies, to_tainted_str
from ..tracking.tainted_str import TaintedStr

__all__ = ["sql_quote", "html_escape", "json_encode"]


def _escape_chars(text: TaintedStr, replacements, metachars) -> TaintedStr:
    """Replace metacharacters, keeping each replacement's characters tagged
    with the policies of the character they were derived from (so an escaped
    ``'`` that came from user input is still ``UntrustedData``).

    ``metachars`` matches one key of ``replacements``.  The result is built
    from one slice per run of unchanged characters, joined once; without a
    metacharacter the input itself is returned.
    """
    pieces = []
    cursor = 0
    for match in metachars.finditer(text):
        index = match.start()
        if cursor < index:
            pieces.append(text[cursor:index])
        pieces.append(
            spread_policies(replacements[match.group()], text.policies_at(index))
        )
        cursor = index + 1
    if not pieces:
        return text
    if cursor < len(text):
        pieces.append(text[cursor:])
    return TaintedStr("").join(pieces)


#: The markers the sanitizers attach, built at import: a policy is a value
#: object, so one instance serves every call and hashes its identity once.
_SQL_QUOTED = SQLSanitized("sql_quote")
_HTML_ESCAPED = HTMLSanitized("html_escape")
_JSON_ENCODED = JSONSanitized("json_encode")

_SQL_REPLACEMENTS = {"'": "''"}
_SQL_METACHARS = re.compile("'")


def sql_quote(value) -> TaintedStr:
    """Escape a value for inclusion inside a single-quoted SQL literal and
    mark it ``SQLSanitized``."""
    text = to_tainted_str(value)
    if "'" in text:
        text = _escape_chars(text, _SQL_REPLACEMENTS, _SQL_METACHARS)
    return text.with_policy(_SQL_QUOTED) if text else text


_HTML_REPLACEMENTS = {
    "&": "&amp;",
    "<": "&lt;",
    ">": "&gt;",
    '"': "&quot;",
    "'": "&#x27;",
}
_HTML_METACHARS = re.compile("[&<>\"']")


def html_escape(value) -> TaintedStr:
    """Escape HTML metacharacters and mark the result ``HTMLSanitized``."""
    text = to_tainted_str(value)
    text = _escape_chars(text, _HTML_REPLACEMENTS, _HTML_METACHARS)
    if not text:
        return text
    return text.with_policy(_HTML_ESCAPED)


def json_encode(value) -> TaintedStr:
    """Encode a value as a JSON string literal and mark it ``JSONSanitized``
    (Section 5.4: JSON output has the same structure-injection problem as
    SQL)."""
    text = to_tainted_str(value)
    encoded = TaintedStr(json.dumps(str(text)))
    # json.dumps goes through C code and drops the taint; re-attach the
    # original policies plus the sanitized marker so tracking continues.
    for policy in text.policies():
        encoded = encoded.with_policy(policy)
    return encoded.with_policy(_JSON_ENCODED)
