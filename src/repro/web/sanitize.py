"""Sanitization functions.

The paper's first SQL-injection / XSS strategy (Section 5.3) changes the
application's *existing* sanitization functions to attach a ``SQLSanitized``
or ``HTMLSanitized`` policy to the freshly sanitized data.  These are those
sanitizers: each performs the usual escaping and then marks every character
of the result.

Note that the ``UntrustedData`` policy is deliberately *not* removed: keeping
it lets an assertion distinguish data sanitized for SQL from data sanitized
for HTML (using the wrong sanitizer still trips the assertion).

Each marker is attached through a one-policy set built at import, so a call
builds no policy set, and a call on plain text (a ``str`` carrying no
policy) escapes it as plain text and builds one ``TaintedStr``: the result.
"""

from __future__ import annotations

import json
import re
from typing import List

from ..core.policyset import PolicySet
from ..policies.untrusted import HTMLSanitized, JSONSanitized, SQLSanitized
from ..tracking.propagation import policies_of, to_tainted_str
from ..tracking.ranges import PolicyRange, RangeMap
from ..tracking.tainted_str import TaintedStr

__all__ = ["sql_quote", "html_escape", "json_encode"]


def _escape_chars(text: str, replacements, metachars) -> str:
    """Replace metacharacters, keeping each replacement's characters tagged
    with the policies of the character they were derived from (so an escaped
    ``'`` that came from user input is still ``UntrustedData``).

    ``metachars`` matches one key of ``replacements``.  Plain text is
    replaced in one ``sub``.  A ``TaintedStr`` is replaced one run of equal
    policies at a time: each run in one ``sub``, its escaped text given one
    range.  Without a metacharacter the input itself is returned.
    """

    def replace(match) -> str:
        return replacements[match.group()]

    if not isinstance(text, TaintedStr):
        return metachars.sub(replace, text)
    if metachars.search(text) is None:
        return text
    plain = str.__str__(text)
    # (start, stop, policies) per run, policy-free gaps as ``None``.
    runs = []
    cursor = 0
    for rng in text.rangemap.ranges:
        runs.append((cursor, rng.start, None))
        runs.append((rng.start, rng.stop, rng.policies))
        cursor = rng.stop
    runs.append((cursor, len(plain), None))
    pieces: List[str] = []
    ranges: List[PolicyRange] = []
    length = 0
    for start, stop, policies in runs:
        piece = metachars.sub(replace, plain[start:stop])
        if policies is not None:
            ranges.append(PolicyRange(length, length + len(piece), policies))
        pieces.append(piece)
        length += len(piece)
    return TaintedStr("".join(pieces), RangeMap(length, ranges))


def _marked(text: str, markers: PolicySet) -> TaintedStr:
    """``text`` with ``markers`` on every character, beside the policies it
    already carries."""
    if isinstance(text, TaintedStr):
        return TaintedStr(text, text.rangemap.add_policies(markers))
    return TaintedStr(text, RangeMap.uniform(len(text), markers))


#: The markers the sanitizers attach, each a one-policy set built at import:
#: a policy is a value object and a set is interned, so one set serves every
#: call and hashes its policy's identity once.
_SQL_QUOTED = PolicySet.of(SQLSanitized("sql_quote"))
_HTML_ESCAPED = PolicySet.of(HTMLSanitized("html_escape"))
_JSON_ENCODED = PolicySet.of(JSONSanitized("json_encode"))

_SQL_REPLACEMENTS = {"'": "''"}
_SQL_METACHARS = re.compile("'")


def sql_quote(value) -> TaintedStr:
    """Escape a value for inclusion inside a single-quoted SQL literal and
    mark it ``SQLSanitized``."""
    text = value if isinstance(value, str) else to_tainted_str(value)
    if "'" in text:
        text = _escape_chars(text, _SQL_REPLACEMENTS, _SQL_METACHARS)
    return _marked(text, _SQL_QUOTED)


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
    text = value if isinstance(value, str) else to_tainted_str(value)
    text = _escape_chars(text, _HTML_REPLACEMENTS, _HTML_METACHARS)
    return _marked(text, _HTML_ESCAPED)


def json_encode(value) -> TaintedStr:
    """Encode a value as a JSON string literal and mark it ``JSONSanitized``
    (Section 5.4: JSON output has the same structure-injection problem as
    SQL)."""
    text = value if isinstance(value, str) else to_tainted_str(value)
    encoded = json.dumps(str(text))
    # json.dumps goes through C code and drops the taint; re-attach the
    # original policies plus the sanitized marker so tracking continues.
    policies = policies_of(text).union(_JSON_ENCODED)
    return TaintedStr(encoded, RangeMap.uniform(len(encoded), policies))
