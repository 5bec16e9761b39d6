"""Deterministic guards on the fixed cost of a served HotCRP page.

Timing tests flake; these count instead.  Parsing each statement the site
issues (the users and papers SELECTs of a paper page, the reviews INSERT of
a review) stays within a budget of Python and C calls, counted with
``sys.setprofile``, the first time its shape is seen and within a smaller
one after; so does running each
paper-page SELECT through the RESIN site's policy cells; the SQL channel's
check of a query built by ``concat`` leaves its range map unflattened; a
served page runs no ``import`` statement once
the site is warm, counted through ``builtins.__import__``, and computes no
fresh ``Policy._identity``, counted on the base class, both on the RESIN
and the unmodified site; a keep-alive socket request creates no asyncio Task
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

from repro.apps.hotcrp import HotCRP
from repro.channels import sqlchan
from repro.core.exceptions import PolicyViolation
from repro.core.policy import Policy
from repro.core.policyset import PolicySet
from repro.environment import Environment
from repro.server.http import HTTPServer
from repro.sql import parser
from repro.sql.parser import parse
from repro.tracking.propagation import concat
from repro.web.app import WebApplication
from repro.web.request import Request
from repro.web.response import Response
from repro.web.sanitize import sql_quote

#: Calls one statement's tokenize-and-parse may make.
PARSE_CALL_BUDGET = 300

#: Calls parsing a statement whose shape was parsed before may make.
PARSE_HIT_CALL_BUDGET = 80

#: Calls one paper-page SELECT's lock, plan and execution may make, with the
#: policies of every cell it reads attached.
EXEC_CALL_BUDGET = 250

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
    """Every statement the site parses for one paper page and one review."""
    site = build_site(use_resin=True)
    seen = []
    original = sqlchan.parse

    def recording(sql):
        seen.append(sql)
        return original(sql)

    sqlchan.parse = recording
    try:
        serve_page(site, "pc@example.org")
        site.add_review(1, "pc@example.org", "Strong accept.", released=False)
    finally:
        sqlchan.parse = original
    return seen


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
        parse(sql)  # warm
        parser.clear_templates()
        assert count_calls(parse, sql) <= PARSE_CALL_BUDGET
        assert count_calls(parse, sql) <= PARSE_HIT_CALL_BUDGET


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
    statements = [parse(sql) for sql in hotcrp_statements
                  if str(sql).startswith(prefix)]
    assert statements, f"the site issued no {prefix!r} statement"
    for statement in statements:
        assert db.engine.run(statement, db.cells).rows  # warm
        assert (count_calls(db.engine.run, statement, db.cells)
                <= EXEC_CALL_BUDGET)


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
