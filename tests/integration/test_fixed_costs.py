"""Deterministic guards on the fixed cost of a served HotCRP page.

Timing tests flake; these count instead.  Preparing each statement the site
issues (the users and papers SELECTs of a paper page, the reviews INSERT of
a review) stays within a budget of Python and C calls, counted with
``sys.setprofile``, the first time its shape is seen and within a smaller
one after; so does running each paper-page SELECT's compiled plan through
the RESIN site's policy cells; a warm page plans nothing, on both sites; a
warm page looks its principal up once (one users and one papers
statement, on both sites), and a plain review page's statements do not
grow with its reviews; the SQL channel's check of a query built by
``concat`` leaves its range map unflattened; a
served page runs no ``import`` statement once
the site is warm, counted through ``builtins.__import__``, and computes no
fresh ``Policy._identity``, counted on the base class, both on the RESIN
and the unmodified site; a warm page builds a bounded number of
``TaintedStr`` and no ``PolicySet``, while every write still crosses the
default filter; the HTTP filters judge a plain ``str`` as they judge a
policy-free ``TaintedStr`` of the same text; the sanitizers mark plain and
tainted text as a per-character oracle says; a keep-alive socket request
creates no asyncio Task
and no ``concurrent.futures.Future`` and wakes the event loop from another
thread exactly once, counted on the serving loop; and a refused request
leaves no more cyclic garbage than a served one, counted by ``gc.collect``.
"""

import asyncio
import builtins
import concurrent.futures
import gc
import sys

import pytest
from hypothesis import given, strategies as st

from repro.apps.hotcrp import HotCRP
from repro.channels import sqlchan
from repro.channels.httpout import HTTPOutputChannel
from repro.core.exceptions import PolicyViolation
from repro.core.filter import DefaultFilter
from repro.core.policy import Policy
from repro.core.policyset import PolicySet
from repro.environment import Environment
from repro.policies import HTMLSanitized, SQLSanitized, UntrustedData
from repro.runtime_api import Resin
from repro.security.assertions import (HTMLGuardFilter,
                                       HTMLStructureGuardFilter,
                                       JSONGuardFilter,
                                       ResponseSplittingFilter)
from repro.server.http import HTTPServer
from repro.sql import parser
from repro.sql.parser import prepare
from repro.sql.planner import Planner
from repro.tracking.propagation import concat
from repro.tracking.ranges import PolicyRange, RangeMap
from repro.tracking.tainted_str import TaintedStr
from repro.web.app import WebApplication
from repro.web.request import Request
from repro.web.response import Response
from repro.web.sanitize import html_escape, sql_quote

#: Calls preparing one statement whose shape is new (its tokenize-and-parse)
#: may make.
PARSE_CALL_BUDGET = 300

#: Calls preparing a statement whose shape was prepared before may make: the
#: cut of its slot values.
PARSE_HIT_CALL_BUDGET = 60

#: Calls one paper-page SELECT's lock, compiled plan and execution may make,
#: with the policies of every cell it reads attached.
EXEC_CALL_BUDGET = 120

#: Per warm paper page served to a PC member: ``TaintedStr`` and
#: ``PolicySet`` constructions may not exceed these; ``filter_write`` is the
#: number of writes, each of which crosses the default filter.  Plain text
#: stays a ``str`` on the HTTP channel, the sanitizers attach constant
#: marker sets and the principal is looked up once, so the plain site's
#: strings are its users query's (the quoted e-mail, ``concat`` and the
#: parser's literal cut), and the RESIN site adds its database cells.
PAGE_BUDGETS = {
    "plain": {"TaintedStr": 3, "PolicySet": 0, "filter_write": 13},
    "resin": {"TaintedStr": 8, "PolicySet": 0, "filter_write": 14},
}

PRINCIPALS = ("pc@example.org", "chair@example.org", "author@example.org",
              "outsider@example.org")


def build_site(use_resin):
    site = HotCRP(Environment(persist_policies=use_resin), use_resin=use_resin)
    site.register_user("pc@example.org", "pc-password", is_pc=True)
    site.register_user("chair@example.org", "chair-password", is_pc=True,
                       priv_chair=True)
    site.register_user("author@example.org", "author-password")
    site.submit_paper(1, "Improving Application Security",
                      "Data flow assertions. " * 12,
                      ["author@example.org"], anonymous=True)
    site.add_review(1, "pc@example.org", "Accept.", released=False)
    return site


def serve_page(site, user):
    try:
        return site.web.handle(Request("/paper/1", user=user))
    except PolicyViolation:
        return None  # the RESIN site refuses the outsider


def statements_of(fn, *args):
    """The SQL statements ``fn(*args)`` prepares, in order."""
    seen = []
    original = sqlchan.prepare

    def recording(sql):
        seen.append(sql)
        return original(sql)

    sqlchan.prepare = recording
    try:
        fn(*args)
    finally:
        sqlchan.prepare = original
    return seen


def tables_of(statements):
    """The table each ``SELECT ... FROM <table>`` statement reads."""
    return [str(sql).split(" FROM ", 1)[1].split(" ", 1)[0] for sql in statements]


def count_calls(fn, *args):
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


@pytest.fixture(scope="module")
def hotcrp_statements():
    """Every statement the site prepares for one paper page and one review."""
    site = build_site(use_resin=True)

    def page_and_review():
        serve_page(site, "pc@example.org")
        site.add_review(1, "pc@example.org", "Strong accept.", released=False)

    return statements_of(page_and_review)


@pytest.mark.parametrize("prefix", [
    "SELECT email, password, is_pc, priv_chair FROM users",
    "SELECT id, title, abstract, authors, anonymous FROM papers",
    "INSERT INTO reviews",
])
def test_parsing_a_hotcrp_statement_stays_within_its_call_budget(
        hotcrp_statements, prefix):
    statements = [sql for sql in hotcrp_statements
                  if str(sql).startswith(prefix)]
    assert statements, f"the site issued no {prefix!r} statement"
    for sql in statements:
        prepare(sql)  # warm
        parser.clear_templates()
        assert count_calls(prepare, sql) <= PARSE_CALL_BUDGET
        assert count_calls(prepare, sql) <= PARSE_HIT_CALL_BUDGET


@pytest.mark.parametrize("user", ["pc@example.org", "o'brien@example.org"])
def test_the_sql_chains_check_leaves_a_concatenated_query_lazy(user):
    """The export check asks a query built from flat pieces for its policies
    without flattening its rope, and the answer is the flattened union."""
    db = build_site(use_resin=True).env.db
    query = concat("SELECT email, password, is_pc, priv_chair FROM users "
                   "WHERE email = '", sql_quote(user), "'")
    checked = []
    db._effective_chain().filter_func(checked.append, (query,), {})
    assert checked == [query]
    assert not query.rangemap.is_materialized()
    flattened = PolicySet.empty()
    for rng in query.rangemap.ranges:
        flattened = flattened.union(rng.policies)
    assert query.policies() == flattened
    assert flattened


@pytest.mark.parametrize("prefix", [
    "SELECT email, password, is_pc, priv_chair FROM users",
    "SELECT id, title, abstract, authors, anonymous FROM papers",
])
def test_running_a_paper_page_select_stays_within_its_call_budget(
        hotcrp_statements, prefix):
    db = build_site(use_resin=True).env.db
    statements = [prepare(sql) for sql in hotcrp_statements
                  if str(sql).startswith(prefix)]
    assert statements, f"the site issued no {prefix!r} statement"
    for template, values in statements:
        assert db.engine.run(template, db.cells, values).rows  # warm
        assert (count_calls(db.engine.run, template, db.cells, values)
                <= EXEC_CALL_BUDGET)


@pytest.mark.parametrize("use_resin", [True, False], ids=["resin", "plain"])
def test_a_warm_paper_page_plans_nothing(use_resin, monkeypatch):
    """Each statement shape is planned and compiled once per engine, so a
    warm page runs compiled plans and never enters the planner; a shape the
    engine has not seen is planned once."""
    site = build_site(use_resin)
    for user in PRINCIPALS:
        serve_page(site, user)  # warm-up
    planned = []
    for name in ("plan", "plan_select"):
        original = getattr(Planner, name)

        def counting(self, statement, _original=original, _name=name):
            planned.append(_name)
            return _original(self, statement)

        monkeypatch.setattr(Planner, name, counting)
    for user in PRINCIPALS:
        serve_page(site, user)
    assert planned == []
    site.env.db.query("SELECT title FROM papers WHERE id = 1")
    site.env.db.query("SELECT title FROM papers WHERE id = 2")
    assert planned == ["plan", "plan_select"]


@pytest.mark.parametrize("user", PRINCIPALS)
@pytest.mark.parametrize("use_resin", [True, False], ids=["resin", "plain"])
def test_a_warm_paper_page_looks_its_principal_up_once(use_resin, user):
    """Like HotCRP's ``$Me``, the requesting user is looked up once per
    request: a page issues one users statement and one papers statement."""
    site = build_site(use_resin)
    serve_page(site, user)  # warm-up
    assert tables_of(statements_of(serve_page, site, user)) == ["users", "papers"]


@pytest.mark.parametrize("user", PRINCIPALS)
def test_a_plain_review_page_issues_no_statement_per_review(user):
    """The unmodified site's explicit check reads the roles resolved with the
    response, so a review page's statements do not grow with its reviews,
    served or called directly."""
    site = build_site(use_resin=False)
    pages = {"served": lambda: site.web.handle(Request("/paper/1/reviews",
                                                        user=user)),
             "direct": lambda: site.review_page(1, user)}
    for reviews in (1, 2, 4):  # build_site adds one; each round doubles them
        for name, page in pages.items():
            page()  # warm-up
            assert tables_of(statements_of(page)) == [
                "users", "reviews", "papers"], (name, reviews)
        for _ in range(reviews):
            site.add_review(1, "pc@example.org", "Weak accept.", released=True)


@pytest.mark.parametrize("use_resin", [True, False], ids=["resin", "plain"])
def test_a_served_page_computes_no_fresh_policy_identity(use_resin,
                                                         monkeypatch):
    """The sanitizers attach markers built at import, so a warm page hashes
    no policy it has not hashed before."""
    site = build_site(use_resin)
    for user in PRINCIPALS:
        serve_page(site, user)  # warm-up
    fresh = []
    original = Policy._identity

    def counting(self):
        if "_identity_cache" not in self.__dict__:
            fresh.append(type(self).__name__)
        return original(self)

    monkeypatch.setattr(Policy, "_identity", counting)
    for user in PRINCIPALS:
        serve_page(site, user)
    monkeypatch.undo()
    assert fresh == []


@pytest.mark.parametrize("use_resin", [True, False], ids=["resin", "plain"])
def test_a_served_page_runs_no_import_statement(use_resin, monkeypatch):
    site = build_site(use_resin)
    for user in PRINCIPALS:
        serve_page(site, user)  # warm-up
    imports = []
    original = builtins.__import__

    def counting(name, *args, **kwargs):
        imports.append(name)
        return original(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counting)
    for user in PRINCIPALS:
        serve_page(site, user)
    monkeypatch.undo()
    assert imports == []


@pytest.mark.parametrize("use_resin", [True, False], ids=["resin", "plain"])
def test_a_warm_page_keeps_plain_text_native_and_checks_every_write(use_resin):
    site = build_site(use_resin)
    for user in PRINCIPALS:
        serve_page(site, user)  # warm-up
    counted = {TaintedStr.__new__.__code__: "TaintedStr",
               PolicySet.__new__.__code__: "PolicySet",
               DefaultFilter.filter_write.__code__: "filter_write"}
    counts = dict.fromkeys(counted.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counted:
            counts[counted[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        channel = serve_page(site, "pc@example.org")
    finally:
        sys.setprofile(None)
    assert "Improving Application Security" in channel.body()
    budget = PAGE_BUDGETS["resin" if use_resin else "plain"]
    assert counts["TaintedStr"] <= budget["TaintedStr"]
    assert counts["PolicySet"] <= budget["PolicySet"]
    assert counts["filter_write"] == budget["filter_write"]


#: Text that exercises each guard's lexer: markup, quotes, CR/LF, a NUL.
html_text = st.text(alphabet="<>&\"'=/ !-abcehilprstx\r\n\0é", max_size=60)


def _verdict(write, data):
    """What one write does: the text it lets through, or the refusal."""
    try:
        return "passed", str(write(data))
    except PolicyViolation as exc:
        return type(exc).__name__, str(exc)


@given(text=html_text)
def test_each_http_filter_judges_plain_and_policy_free_text_alike(text):
    """``DefaultFilter``, the ``xss`` assertion's two strategies, the
    response-splitting guard and the JSON guard give a plain ``str`` the
    verdict and output text they give a ``TaintedStr`` with no policy: alone,
    and on a channel where the named assertion is installed."""
    filters = [DefaultFilter(), HTMLGuardFilter(), HTMLStructureGuardFilter(),
               ResponseSplittingFilter(), JSONGuardFilter()]
    for flt in filters:
        assert (_verdict(flt.filter_write, text)
                == _verdict(flt.filter_write, TaintedStr(text)))
    resin = Resin(Environment())
    for name, options in [("xss", {"strategy": "sanitizer"}),
                          ("xss", {"strategy": "structure"}),
                          ("response-splitting", {}), ("json-guard", {})]:
        channels = []
        for data in (text, TaintedStr(text)):
            channel = HTTPOutputChannel(env=resin.env)
            resin.assertion(name, **options).install(channel)
            verdict = _verdict(channel.write, data)
            channels.append((verdict, channel.body(),
                             _verdict(lambda v: channel.add_header("X", v), data)))
        assert channels[0] == channels[1]


MARKERS = {sql_quote: SQLSanitized("sql_quote"),
           html_escape: HTMLSanitized("html_escape")}
ESCAPES = {sql_quote: {"'": "''"},
           html_escape: {"&": "&amp;", "<": "&lt;", ">": "&gt;",
                         '"': "&quot;", "'": "&#x27;"}}


@st.composite
def tainted_texts(draw):
    """Text over quotes and markup, with untrusted ranges of two sources."""
    text = draw(st.text(alphabet="'<>&\"ab", max_size=16))
    ranges = []
    for _ in range(draw(st.integers(0, 3))):
        if not text:
            break
        start = draw(st.integers(0, len(text) - 1))
        stop = draw(st.integers(start + 1, len(text)))
        source = draw(st.sampled_from(["form", "cookie"]))
        ranges.append(PolicyRange(start, stop,
                                  PolicySet.of(UntrustedData(source))))
    return TaintedStr(text, RangeMap(len(text), ranges))


@pytest.mark.parametrize("sanitize", [sql_quote, html_escape],
                         ids=["sql_quote", "html_escape"])
@given(tainted=tainted_texts())
def test_a_sanitizer_marks_plain_and_tainted_text_per_character(sanitize,
                                                                 tainted):
    """Each character of the input becomes its escape (or itself), carrying
    the input character's policies and the sanitizer's marker; plain text
    gives what a policy-free ``TaintedStr`` gives."""
    marker = MARKERS[sanitize]
    escapes = ESCAPES[sanitize]
    plain = tainted.plain()
    pieces, policies = [], []
    for index, char in enumerate(plain):
        piece = escapes.get(char, char)
        pieces.append(piece)
        marked = tainted.policies_at(index).add(marker)
        policies.extend([marked] * len(piece))
    expected = RangeMap(len(policies), [
        PolicyRange(index, index + 1, pset)
        for index, pset in enumerate(policies)])

    result = sanitize(tainted)
    assert isinstance(result, TaintedStr)
    assert result.plain() == "".join(pieces)
    assert result.rangemap == expected
    from_plain = sanitize(plain)
    from_policy_free = sanitize(TaintedStr(plain))
    assert isinstance(from_plain, TaintedStr)
    assert from_plain.plain() == from_policy_free.plain() == "".join(pieces)
    assert from_plain.rangemap == from_policy_free.rangemap
    assert from_plain.rangemap == RangeMap.uniform(len(from_plain),
                                                   PolicySet.of(marker))


def build_socket_app():
    app = WebApplication(Environment(), "fixed-cost")

    @app.route("/hello")
    def hello(request, response):
        return Response("hello")

    @app.route("/deny")
    def deny(request, response):
        raise PolicyViolation("denied")

    return app


async def exchange(reader, writer, path="/hello"):
    """One keep-alive GET; returns the response status line."""
    writer.write(b"GET " + path.encode() + b" HTTP/1.1\r\nHost: h\r\n\r\n")
    head = await reader.readuntil(b"\r\n\r\n")
    length = int(head.lower().split(b"content-length: ")[1].split(b"\r\n")[0])
    await reader.readexactly(length)
    return head.split(b"\r\n", 1)[0]


def test_a_keep_alive_request_wakes_the_loop_once_and_allocates_no_task(
        monkeypatch):
    """Fifty keep-alive GETs of a sync route through ``HTTPServer`` on this
    test's own loop.  Beyond the connection's own task (made before the
    count starts) they create no asyncio Task and no
    ``concurrent.futures.Future``, and the worker thread wakes the loop
    once per request."""
    requests = 50
    counts = {"tasks": 0, "futures": 0, "wakeups": 0}
    future_init = concurrent.futures.Future.__init__

    def counting_future_init(self, *args, **kwargs):
        counts["futures"] += 1
        future_init(self, *args, **kwargs)

    def counting_task_factory(loop, coro, **kwargs):
        counts["tasks"] += 1
        return asyncio.Task(coro, loop=loop, **kwargs)

    async def scenario():
        loop = asyncio.get_running_loop()
        call_soon_threadsafe = loop.call_soon_threadsafe

        def counting_call_soon_threadsafe(*args, **kwargs):
            counts["wakeups"] += 1
            return call_soon_threadsafe(*args, **kwargs)

        async with HTTPServer(build_socket_app(), idle_timeout=5.0) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            await exchange(reader, writer)  # connection task and worker up
            monkeypatch.setattr(concurrent.futures.Future, "__init__",
                                counting_future_init)
            monkeypatch.setattr(loop, "call_soon_threadsafe",
                                counting_call_soon_threadsafe)
            loop.set_task_factory(counting_task_factory)
            try:
                for _ in range(requests):
                    assert await exchange(reader, writer) == b"HTTP/1.1 200 OK"
            finally:
                loop.set_task_factory(None)
                monkeypatch.undo()
            writer.close()

    asyncio.run(scenario())
    assert counts == {"tasks": 0, "futures": 0, "wakeups": requests}


def test_a_refused_request_leaves_no_more_cyclic_garbage_than_a_served_one():
    """A handler's exception crosses from the worker thread to the loop with
    its traceback; neither side may keep it in a reference cycle, or every
    refused request's objects wait for the cycle collector."""
    requests = 20

    async def garbage_per_batch(reader, writer, path):
        gc.collect()
        gc.disable()
        try:
            for _ in range(requests):
                await exchange(reader, writer, path)
        finally:
            gc.enable()
        return gc.collect()

    async def scenario():
        async with HTTPServer(build_socket_app(), idle_timeout=5.0) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            assert await exchange(reader, writer, "/deny") == (
                b"HTTP/1.1 403 Forbidden")
            served = await garbage_per_batch(reader, writer, "/hello")
            refused = await garbage_per_batch(reader, writer, "/deny")
            writer.close()
        return served, refused

    served, refused = asyncio.run(scenario())
    assert refused <= served
