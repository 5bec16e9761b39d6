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

from typing import Any, Callable, Dict, Mapping, Optional

from ..core.exceptions import AccessDenied, InjectionViolation, SerializationError
from ..core.filter import Filter
from ..core.request_context import request_scoped_context
from ..policies.acl import ACL
from ..policies.code_approval import CodeApproval
from ..policies.untrusted import HTMLSanitized, SQLSanitized, UntrustedData
from ..sql.tokenizer import NUMBER, STRING, tokenize
from ..tracking.tainted_str import TaintedStr
from ..web.request import Request

__all__ = [
    "mark_untrusted", "mark_request_untrusted", "UntrustedInputFilter",
    "SQLGuardFilter", "AutoSanitizingSQLFilter", "HTMLGuardFilter",
    "HTMLStructureGuardFilter", "JSONGuardFilter",
    "ResponseSplittingFilter", "WriteAccessFilter",
    "install_script_injection_assertion", "approve_code_file",
]


def mark_untrusted(value, source: str = "input"):
    """Attach an ``UntrustedData`` policy to ``value``."""
    from ..core.api import policy_add
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


class SQLGuardFilter(Filter):
    """SQL-injection assertion (Data Flow Assertion 1).

    Stacked on a :class:`repro.channels.sqlchan.Database`.  Two strategies
    from Section 5.3 are supported:

    * ``"sanitizer"`` — any character of the query that carries
      ``UntrustedData`` must also carry ``SQLSanitized`` (i.e. user input
      must have passed through the quoting function);
    * ``"structure"`` — characters belonging to the query's *structure*
      (keywords, identifiers, operators, punctuation — everything except the
      contents of string literals) must not carry ``UntrustedData`` at all.
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
            self._check_sanitizer(sql)
        else:
            self._check_structure(sql)

    def _check_sanitizer(self, sql: TaintedStr) -> None:
        for rng in sql.rangemap.ranges:
            if (rng.policies.has_type(UntrustedData)
                    and not rng.policies.has_type(SQLSanitized)):
                raise InjectionViolation(
                    "unsanitized user input in SQL query near "
                    f"{str(sql)[rng.start:rng.stop][:40]!r}",
                    context=request_scoped_context(self.context))

    def _check_structure(self, sql: TaintedStr) -> None:
        for token in tokenize(sql):
            if token.type in (STRING, NUMBER):
                # Literals are data, not structure: untrusted data is allowed
                # to appear as a string literal's contents or a bare number —
                # it just may not change keywords, identifiers or operators.
                continue
            text = token.text
            if isinstance(text, TaintedStr) and text.has_policy_type(UntrustedData):
                raise InjectionViolation(
                    "user input reached SQL query structure near "
                    f"{str(text)[:40]!r}",
                    context=request_scoped_context(self.context))


class HTMLGuardFilter(Filter):
    """Cross-site-scripting assertion.

    Stacked on the HTTP output channel.  Any character of the response that
    carries ``UntrustedData`` but not ``HTMLSanitized`` trips the assertion —
    regardless of which path the untrusted data took into the page (HTML
    form, whois response, database round-trip, …).
    """

    def filter_write(self, data: Any, offset: int = 0) -> Any:
        if isinstance(data, TaintedStr):
            for rng in data.rangemap.ranges:
                if (rng.policies.has_type(UntrustedData)
                        and not rng.policies.has_type(HTMLSanitized)):
                    raise InjectionViolation(
                        "unsanitized user input in HTML output near "
                        f"{str(data)[rng.start:rng.stop][:40]!r}",
                        context=self.context)
        return data


class AutoSanitizingSQLFilter(Filter):
    """The variation of the second SQL strategy described in Section 5.3:
    instead of rejecting queries whose structure carries ``UntrustedData``,
    the filter re-quotes the untrusted characters in transit so they cannot
    change the command structure of the query.

    Contiguous untrusted characters that appear *outside* string literals are
    rewritten into a quoted SQL literal; untrusted characters inside string
    literals are left alone (the quoting already confines them).  The
    rewritten query is what actually reaches the database.
    """

    def filter_func(self, func: Callable, args: tuple, kwargs: dict) -> Any:
        if args and isinstance(args[0], TaintedStr):
            args = (self._rewrite(args[0]),) + tuple(args[1:])
        return func(*args, **kwargs)

    def _rewrite(self, sql: TaintedStr) -> TaintedStr:
        """Walk the query as alternating runs of trusted and untrusted
        characters.  Adjacent untrusted ranges form one run (one
        ``sql_quote`` call); a trusted run flips the template's quote parity
        once per ``'`` it contains."""
        from ..web.sanitize import sql_quote
        runs = []
        for rng in sql.rangemap.ranges:
            if rng.policies.has_type(UntrustedData):
                if runs and runs[-1][1] == rng.start:
                    runs[-1][1] = rng.stop
                else:
                    runs.append([rng.start, rng.stop])
        if not runs:
            return sql
        pieces = []
        inside_literal = False      # quote parity of the *trusted* template
        cursor = 0
        for start, stop in runs:
            if cursor < start:
                pieces.append(sql[cursor:start])
                if sql.count("'", cursor, start) % 2:
                    inside_literal = not inside_literal
            run = sql_quote(sql[start:stop])
            if inside_literal:
                # The template already supplies the enclosing quotes;
                # escaping the run keeps it confined to that literal.
                pieces.append(run)
            else:
                # Bare untrusted value: confine it in its own literal.
                pieces.extend(("'", run, "'"))
            cursor = stop
        if cursor < len(sql):
            pieces.append(sql[cursor:])
        return TaintedStr("").join(pieces)


class HTMLStructureGuardFilter(Filter):
    """The structure-checking flavour of the XSS assertion (Section 5.3,
    second strategy): untrusted characters may appear in HTML output only as
    text content — never as markup structure (``<``, ``>``, quotes inside a
    tag, or anywhere inside a ``<script>`` element)."""

    _SCRIPT_OPEN = "<script"
    _SCRIPT_CLOSE = "</script>"

    def filter_write(self, data: Any, offset: int = 0) -> Any:
        if not isinstance(data, TaintedStr):
            return data
        text = str(data)
        lowered = text.lower()
        in_script = False
        in_tag = False
        for index, char in enumerate(text):
            untrusted = data.policies_at(index).has_type(UntrustedData)
            if lowered.startswith(self._SCRIPT_OPEN, index):
                in_script = True
            if lowered.startswith(self._SCRIPT_CLOSE, index):
                in_script = False
            if char == "<":
                in_tag = True
            if untrusted and (char in "<>" or in_tag or in_script):
                raise InjectionViolation(
                    "untrusted data in HTML structure near "
                    f"{text[max(0, index - 10):index + 10]!r}",
                    context=self.context)
            if char == ">":
                in_tag = False
        return data


class JSONGuardFilter(Filter):
    """JSON output guard (Section 5.4): untrusted characters in a JSON
    response must have passed through the JSON encoder, otherwise they could
    change the structure of the client-side data (or smuggle script)."""

    def filter_write(self, data: Any, offset: int = 0) -> Any:
        from ..policies.untrusted import JSONSanitized
        if isinstance(data, TaintedStr):
            for rng in data.rangemap.ranges:
                if (rng.policies.has_type(UntrustedData)
                        and not rng.policies.has_type(JSONSanitized)):
                    raise InjectionViolation(
                        "unsanitized user input in JSON output near "
                        f"{str(data)[rng.start:rng.stop][:40]!r}",
                        context=self.context)
        return data


class ResponseSplittingFilter(Filter):
    """Reject CR-LF sequences that came from user input in HTTP output
    (the HTTP response splitting defence of Sections 3.2 and 5.4)."""

    def filter_write(self, data: Any, offset: int = 0) -> Any:
        if isinstance(data, TaintedStr):
            text = str(data)
            for index in range(len(text)):
                if text[index] not in "\r\n":
                    continue
                if data.policies_at(index).has_type(UntrustedData):
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
