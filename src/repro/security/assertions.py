"""Reusable data flow assertion building blocks.

Each class or helper here is one of the assertion patterns the paper
implements for its evaluation applications (Section 5): marking untrusted
input, checking SQL queries and HTML output for unsanitized untrusted data,
rejecting HTTP response splitting, guarding writes with access-control
filters, and requiring code approval before interpretation.

They are deliberately small — the point of the paper is that an assertion is
tens of lines — and they reuse the application's own code and data structures
(ACLs, user lists) wherever a check is needed.
"""

from __future__ import annotations

import re
from html.parser import HTMLParser
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..core.api import policy_add
from ..core.exceptions import AccessDenied, InjectionViolation, SerializationError
from ..core.filter import Filter
from ..core.request_context import request_scoped_context
from ..policies.acl import ACL
from ..policies.code_approval import CodeApproval
from ..policies.untrusted import (HTMLSanitized, JSONSanitized, SQLSanitized,
                                  UntrustedData)
from ..sql.tokenizer import NUMBER, STRING, scan
from ..tracking.tainted_str import TaintedStr
from ..web.request import Request
from ..web.sanitize import sql_quote

__all__ = [
    "mark_untrusted", "mark_request_untrusted", "UntrustedInputFilter",
    "SQLGuardFilter", "AutoSanitizingSQLFilter", "HTMLGuardFilter",
    "HTMLStructureGuardFilter", "JSONGuardFilter",
    "ResponseSplittingFilter", "WriteAccessFilter",
    "install_script_injection_assertion", "approve_code_file",
]


def mark_untrusted(value, source: str = "input"):
    """Attach an ``UntrustedData`` policy to ``value``."""
    return policy_add(value, UntrustedData(source))


def mark_request_untrusted(request: Request, source: str = "http-param") -> None:
    """Annotate every request parameter and uploaded file as untrusted.

    This is step 2 of the SQL-injection/XSS assertions of Section 5.3;
    applications run it as request middleware
    (:class:`~repro.web.routing.UntrustedInputMiddleware`).
    """
    request.mark_params(UntrustedData(source))


class UntrustedInputFilter(Filter):
    """A channel filter that marks everything read from the channel as
    untrusted — used on sockets that talk to external services (the whois
    connection in the phpBB cross-site-scripting bug of Section 6.3)."""

    def __init__(self, source: str = "socket", context: Optional[dict] = None):
        super().__init__(context)
        self.source = source

    def filter_read(self, data: Any, offset: int = 0) -> Any:
        return mark_untrusted(data, self.source)


def _untrusted_ranges(data: TaintedStr, unless: Optional[type] = None):
    """The ``(start, stop)`` of each range of ``data`` that carries
    ``UntrustedData`` (and no ``unless`` marker): how every guard below
    finds untrusted characters."""
    return [(rng.start, rng.stop) for rng in data.rangemap.ranges
            if rng.policies.has_type(UntrustedData)
            and not (unless and rng.policies.has_type(unless))]


def _mask(length: int, spans) -> bytearray:
    """One byte per position of a text of ``length``: 1 inside ``spans``."""
    mask = bytearray(length)
    for start, stop in spans:
        mask[start:stop] = b"\1" * (stop - start)
    return mask


def _check_sanitized(data: TaintedStr, marker: type, output: str,
                     context) -> None:
    """The sanitizer strategy of Section 5.3: every untrusted character of
    ``data`` must carry the ``marker`` its sanitizer attaches."""
    unsanitized = _untrusted_ranges(data, marker)
    if unsanitized:
        start, stop = unsanitized[0]
        raise InjectionViolation(
            f"unsanitized user input in {output} near "
            f"{str(data)[start:stop][:40]!r}", context=context)


def _check_sql_structure(sql: TaintedStr, context) -> None:
    """The structure strategy of Section 5.3: no untrusted character of
    ``sql`` in a token that :func:`~repro.sql.tokenizer.scan` reads, unless
    the token is a string literal or a number."""
    kinds, _, spans = scan(sql)
    untrusted = _mask(len(sql), _untrusted_ranges(sql))
    for kind, (start, end) in zip(kinds, spans):
        if kind not in (STRING, NUMBER) and untrusted.find(1, start, end) >= 0:
            raise InjectionViolation(
                "user input reached SQL query structure near "
                f"{str(sql)[start:end][:40]!r}",
                context=request_scoped_context(context))


class SQLGuardFilter(Filter):
    """SQL-injection assertion (Data Flow Assertion 1).

    Stacked on a :class:`repro.channels.sqlchan.Database`.  Two strategies
    from Section 5.3 are supported:

    * ``"sanitizer"`` — any character of the query that carries
      ``UntrustedData`` must also carry ``SQLSanitized`` (i.e. user input
      must have passed through the quoting function);
    * ``"structure"`` — characters belonging to the query's *structure*
      (the tokens the engine's tokenizer reads, except string literals,
      quotes included, and numbers) must not carry ``UntrustedData`` at all.
    """

    def __init__(self, strategy: str = "structure",
                 context: Optional[dict] = None):
        super().__init__(context)
        if strategy not in ("structure", "sanitizer"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.strategy = strategy

    def filter_func(self, func: Callable, args: tuple, kwargs: dict) -> Any:
        if args:
            self._check_query(args[0])
        return func(*args, **kwargs)

    def _check_query(self, sql) -> None:
        if not isinstance(sql, TaintedStr):
            return
        if self.strategy == "sanitizer":
            _check_sanitized(sql, SQLSanitized, "SQL query",
                             request_scoped_context(self.context))
        else:
            _check_sql_structure(sql, self.context)


class HTMLGuardFilter(Filter):
    """Cross-site-scripting assertion.

    Stacked on the HTTP output channel.  Any character of the response that
    carries ``UntrustedData`` but not ``HTMLSanitized`` trips the assertion —
    regardless of which path the untrusted data took into the page (HTML
    form, whois response, database round-trip, …).
    """

    def filter_write(self, data: Any, offset: int = 0) -> Any:
        if isinstance(data, TaintedStr):
            _check_sanitized(data, HTMLSanitized, "HTML output", self.context)
        return data


class AutoSanitizingSQLFilter(Filter):
    """The variation of the second SQL strategy described in Section 5.3:
    instead of rejecting queries whose structure carries ``UntrustedData``,
    the filter re-quotes the untrusted characters in transit so they cannot
    change the command structure of the query.

    Contiguous untrusted characters that appear *outside* string literals are
    rewritten into a quoted SQL literal; untrusted characters inside string
    literals are escaped.  The rewritten query is what reaches the database,
    once it passes the structure check: a run that the template puts in a
    comment or a backquoted name may still end it.
    """

    def filter_func(self, func: Callable, args: tuple, kwargs: dict) -> Any:
        if args and isinstance(args[0], TaintedStr):
            args = (self._rewrite(args[0]),) + tuple(args[1:])
        return func(*args, **kwargs)

    def _rewrite(self, sql: TaintedStr) -> TaintedStr:
        """Adjacent untrusted ranges form one run (one ``sql_quote`` call).
        The trusted *template*, the query with each untrusted character a
        space, says which runs sit in a string literal, as
        :func:`~repro.sql.tokenizer.scan` reads it."""
        runs = []
        for start, stop in _untrusted_ranges(sql):
            if runs and runs[-1][1] == start:
                runs[-1][1] = stop
            else:
                runs.append([start, stop])
        if not runs:
            return sql
        template = list(str(sql))
        for start, stop in runs:
            template[start:stop] = " " * (stop - start)
        kinds, _, spans = scan("".join(template))
        in_literal = _mask(len(sql), (span for kind, span in zip(kinds, spans)
                                      if kind == STRING))
        pieces = []
        cursor = 0
        for start, stop in runs:
            if cursor < start:
                pieces.append(sql[cursor:start])
            run = sql_quote(sql[start:stop])
            if in_literal[start]:
                # The template already supplies the enclosing quotes;
                # escaping the run keeps it confined to that literal.
                pieces.append(run)
            else:
                # Bare untrusted value: confine it in its own literal.
                pieces.extend(("'", run, "'"))
            cursor = stop
        if cursor < len(sql):
            pieces.append(sql[cursor:])
        rewritten = TaintedStr("").join(pieces)
        _check_sql_structure(rewritten, self.context)
        return rewritten


class _Diverged(Exception):
    """html.parser reads the rest of the write unlike HTML5."""


class _TextContent(HTMLParser):
    """The ``spans`` of an HTML write's text content: data and character
    references outside raw text (``script`` and ``style``).  The write is
    fed once and the parser never closed, which would flush an unfinished
    ``<a href="…`` as data.  What it leaves unread is no text, but for a
    trailing ``&…`` without ``<``: a character reference cut short."""

    def __init__(self, text: str):
        super().__init__(convert_charrefs=False)
        self.spans: List[Tuple[int, int]] = []
        self._source = text
        self._lines = [0] + [match.end() for match in re.finditer("\n", text)]
        try:
            self.feed(text)
        except (AssertionError, NotImplementedError, _Diverged):
            # The parser stops at an unknown ``<![`` section (Python 3.9
            # raises NotImplementedError): the rest is no text.
            return
        rest = self.rawdata
        if rest.startswith("&") and "<" not in rest and not self.cdata_elem:
            self.spans.append((len(text) - len(rest), len(text)))

    def _start(self) -> int:
        line, column = self.getpos()
        return self._lines[line - 1] + column

    def handle_startendtag(self, tag: str, attrs) -> None:
        # HTML5 ignores the "/" of ``<script/>``: raw text still follows.
        if tag in self.CDATA_CONTENT_ELEMENTS:
            self.set_cdata_mode(tag)

    def handle_endtag(self, tag: str) -> None:
        # The parser also ends raw text at ``</ script>``; HTML5 does not.
        start = self._start() + len("</")
        if self.cdata_elem and self._source[start:start + len(tag)].lower() != tag:
            raise _Diverged

    def handle_data(self, data: str) -> None:
        if self.cdata_elem:
            return
        if len(data) > 1 and data[0] == "<":
            raise _Diverged  # a start tag it gave up on, as ``<a\0 x=y>``
        start = self._start()
        self.spans.append((start, start + len(data)))

    def handle_charref(self, name: str) -> None:
        self._reference("&#" + name)

    def handle_entityref(self, name: str) -> None:
        self._reference("&" + name)

    def _reference(self, reference: str) -> None:
        start = self._start()
        stop = start + len(reference)
        if self._source.startswith(";", stop):
            stop += 1
        self.spans.append((start, stop))


class HTMLStructureGuardFilter(Filter):
    """The structure-checking flavour of the XSS assertion (Section 5.3,
    second strategy): untrusted characters may appear in HTML output only as
    text content, as stdlib :mod:`html.parser` reads each write alone —
    never in markup structure: a tag, a comment, ``<script>`` or ``<style>``
    content, or a construct the write leaves unfinished."""

    def filter_write(self, data: Any, offset: int = 0) -> Any:
        if not isinstance(data, TaintedStr):
            return data
        untrusted = _untrusted_ranges(data)
        if not untrusted:
            return data
        text = str(data)
        text_content = _mask(len(text), _TextContent(text).spans)
        for start, stop in untrusted:
            index = text_content.find(0, start, stop)
            if index >= 0:
                raise InjectionViolation(
                    "untrusted data in HTML structure near "
                    f"{text[max(0, index - 10):index + 10]!r}",
                    context=self.context)
        return data


class JSONGuardFilter(Filter):
    """JSON output guard (Section 5.4): untrusted characters in a JSON
    response must have passed through the JSON encoder, otherwise they could
    change the structure of the client-side data (or smuggle script)."""

    def filter_write(self, data: Any, offset: int = 0) -> Any:
        if isinstance(data, TaintedStr):
            _check_sanitized(data, JSONSanitized, "JSON output", self.context)
        return data


class ResponseSplittingFilter(Filter):
    """Reject CR-LF sequences that came from user input in HTTP output
    (the HTTP response splitting defence of Sections 3.2 and 5.4)."""

    def filter_write(self, data: Any, offset: int = 0) -> Any:
        if isinstance(data, TaintedStr):
            text = str(data)
            for start, stop in _untrusted_ranges(data):
                if "\r" in text[start:stop] or "\n" in text[start:stop]:
                    raise InjectionViolation(
                        "user-supplied CR/LF in HTTP output (response "
                        "splitting attempt)", context=self.context)
        return data


class WriteAccessFilter(Filter):
    """Write access control for files and directories (Section 3.2.3,
    Data Flow Assertion 2).

    Attached as a *persistent filter object* to a file or directory; the
    filesystem layer invokes it whenever data flows into the file or the
    directory is modified.  The check either consults an :class:`ACL` (the
    MoinMoin write-ACL assertion) or an arbitrary callable
    ``allowed(user, operation, path)`` (the file-manager home-directory
    assertion).

    ACL-based instances are durable: :meth:`serializable_fields` exposes the
    ACL and right the way a policy exposes its data fields, so the storage
    engine (:mod:`repro.storage`) can persist the filter and restore it on
    recovery.  Callable-based instances carry *code*, which persistent
    records never store — serializing one raises
    :class:`~repro.core.exceptions.SerializationError`, and the durability
    layer skips it (re-attach such filters at application start-up).
    """

    #: Restore path (``__new__`` + stored fields, no ``__init__``) falls back
    #: to these class attributes for fields that were not persisted.
    acl: Optional[ACL] = None
    allowed: Optional[Callable[[Optional[str], str, str], bool]] = None
    right: str = "write"

    def __init__(self, acl: Optional[ACL] = None,
                 allowed: Optional[Callable[[Optional[str], str, str], bool]] = None,
                 right: str = "write",
                 context: Optional[dict] = None):
        super().__init__(context)
        if acl is None and allowed is None:
            raise ValueError("WriteAccessFilter needs an ACL or a callable")
        self.acl = acl
        self.allowed = allowed
        self.right = right

    def serializable_fields(self) -> Dict[str, Any]:
        if self.allowed is not None:
            raise SerializationError(
                "WriteAccessFilter with a callable predicate carries code "
                "and cannot be persisted; use an ACL for durable filters")
        return {"acl": self.acl.to_dict(), "right": self.right}

    def __setattr__(self, key, value):
        # De-serialization restores ``acl`` as a plain dict; rebuild the ACL.
        if key == "acl" and isinstance(value, Mapping):
            value = ACL.from_dict(value)
        super().__setattr__(key, value)

    def _permitted(self, operation: str) -> bool:
        user = self.context.get("user")
        path = self.context.get("path", "")
        if self.allowed is not None:
            return bool(self.allowed(user, operation, path))
        return self.acl.may(user, self.right)

    def filter_write(self, data: Any, offset: int = 0) -> Any:
        if not self._permitted("write"):
            raise AccessDenied(
                f"user {self.context.get('user')!r} may not write "
                f"{self.context.get('path')!r}", context=self.context)
        return data

    def filter_read(self, data: Any, offset: int = 0) -> Any:
        return data

    def check_mutation(self, operation: str, path: str, context) -> None:
        if not self._permitted(operation):
            raise AccessDenied(
                f"user {context.get('user')!r} may not {operation} {path!r}",
                context=context)


def approve_code_file(fs, path: str, approved_by: str = "installer") -> None:
    """Mark a stored file as approved code (Figure 6's
    ``make_file_executable``)."""
    fs.add_file_policy(path, CodeApproval(approved_by))


def install_script_injection_assertion(env) -> None:
    """Replace ``env``'s default ``code``-channel filter so that only approved
    code can be executed (step 3 of the Section 5.2 assertion).

    The replacement is scoped to ``env`` — one assertion per tenant — and
    ``env.registry.reset("code")`` undoes it.
    """
    from ..interp.filters import InterpreterFilter
    env.registry.set_default_filter_factory("code", InterpreterFilter)
