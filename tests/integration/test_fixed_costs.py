"""Deterministic guards on the fixed cost of a served HotCRP page.

Timing tests flake; these count instead.  Parsing each statement the site
issues (the users and papers SELECTs of a paper page, the reviews INSERT of
a review) stays within a budget of Python and C calls, counted with
``sys.setprofile``; and a served page runs no ``import`` statement once the
site is warm, counted through ``builtins.__import__`` on both the RESIN and
the unmodified site.
"""

import builtins
import sys

import pytest

from repro.apps.hotcrp import HotCRP
from repro.channels import sqlchan
from repro.core.exceptions import PolicyViolation
from repro.environment import Environment
from repro.sql.parser import parse
from repro.web.request import Request

#: Calls one statement's tokenize-and-parse may make.
PARSE_CALL_BUDGET = 300

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
        assert count_calls(parse, sql) <= PARSE_CALL_BUDGET


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
