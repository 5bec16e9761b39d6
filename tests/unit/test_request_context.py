"""The per-request RequestContext API: contextvar binding, request-scoped
substrate state, and the per-request database filter overlay."""

import threading

import pytest

from repro.apps.moinmoin import MoinMoin
from repro.core.exceptions import ChannelError, InjectionViolation
from repro.core.request_context import (RequestContext, current_request,
                                        enter_request, request_scoped_context)
from repro.environment import Environment
from repro.policies.untrusted import UntrustedData
from repro.runtime_api import Resin
from repro.security.assertions import SQLGuardFilter, mark_untrusted
from repro.tracking.propagation import concat
from repro.web.request import Request


class TestBinding:
    def test_no_request_by_default(self):
        assert current_request() is None

    def test_enter_binds_and_exit_restores(self):
        ctx = RequestContext(user="alice")
        assert not ctx.active
        with ctx:
            assert ctx.active
            assert current_request() is ctx
        assert not ctx.active
        assert current_request() is None

    def test_nesting_restores_the_enclosing_context(self):
        outer, inner = RequestContext(user="a"), RequestContext(user="b")
        with outer:
            with inner:
                assert current_request() is inner
            assert current_request() is outer
        assert current_request() is None

    def test_reentering_an_active_context_raises(self):
        ctx = RequestContext()
        with ctx:
            with pytest.raises(RuntimeError):
                ctx.__enter__()

    def test_binding_is_thread_local(self):
        seen = {}
        with RequestContext(user="main-user"):
            def probe():
                seen["other-thread"] = current_request()
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
            assert current_request().user == "main-user"
        assert seen["other-thread"] is None

    def test_request_scoped_context_overlays_user(self):
        base = {"type": "sql"}
        assert request_scoped_context(base) == {"type": "sql"}
        with RequestContext(user="alice"):
            merged = request_scoped_context(base)
            assert merged["user"] == "alice"
            assert base == {"type": "sql"}   # shared context not mutated


class TestEnterRequest:
    def test_binds_a_fresh_stamped_context(self):
        env = Environment()
        request = Request("/x", user="alice")
        with enter_request(env, request) as rctx:
            assert current_request() is rctx
            assert rctx.env is env
            assert rctx.request is request
            assert rctx.user == "alice"
            assert rctx.request_id == request.id == 1
        assert not rctx.active
        assert current_request() is None

    def test_nested_entry_for_the_same_request_shares_the_context(self):
        """An outer front end (the socket connection) entered first: the
        application's entry reuses its context, draws no second id, and
        leaves the outer binding in place when it exits."""
        env = Environment()
        request = Request("/x", user="alice")
        with enter_request(env, request) as outer:
            with enter_request(env, request) as inner:
                assert inner is outer
                assert current_request() is outer
            assert current_request() is outer
            assert outer.active
        assert request.id == 1
        assert env.next_request_id() == 2

    def test_other_request_or_environment_binds_its_own_context(self):
        env, other_env = Environment(), Environment()
        first, second = Request("/a", user="alice"), Request("/b", user="bob")
        with enter_request(env, first) as outer:
            with enter_request(env, second) as sibling:
                assert sibling is not outer
                assert sibling.user == "bob"
                assert sibling.request_id == 2
            with enter_request(other_env, first) as foreign:
                assert foreign is not outer
                assert foreign.env is other_env
                # The request keeps the id its first entry stamped.
                assert foreign.request_id == 1
            assert current_request() is outer

    def test_reentry_after_exit_keeps_the_request_id(self):
        env = Environment()
        request = Request("/x")
        with enter_request(env, request) as first:
            pass
        with enter_request(env, request) as again:
            assert again is not first
            assert again.request_id == first.request_id == 1
        assert env.next_request_id() == 2


class TestResinRequestScope:
    def test_scope_binds_a_request_context(self, resin):
        assert resin.current_request is None
        with resin.request(user="alice") as http:
            rctx = resin.current_request
            assert rctx is not None
            assert rctx.user == "alice"
            assert rctx.http is http
        assert resin.current_request is None

    def test_env_http_routes_to_the_request_channel(self, resin):
        with pytest.raises(ChannelError):
            resin.env.http
        with resin.request(user="alice") as http:
            assert resin.env.http is http
        with pytest.raises(ChannelError):
            resin.env.http

    def test_fs_context_is_request_local(self, resin):
        resin.fs.set_request_context(user="ambient")
        with resin.request(user="alice"):
            assert resin.fs.request_context == {"user": "alice"}
            resin.fs.set_request_context(user="switched")
            assert resin.fs.request_context == {"user": "switched"}
        # The ambient (outside-any-request) context survives untouched.
        assert resin.fs.request_context == {"user": "ambient"}

    def test_app_acting_for_a_user_restores_the_request_user(self, resin):
        # The wiki writes as "bob" for one operation; the enclosing request
        # (and, outside one, the ambient context) keeps its own user.
        wiki = MoinMoin(resin.env)
        with RequestContext(env=resin.env, user="alice"):
            wiki.update_body("Page", "hello", "bob")
            assert resin.fs.request_context == {"user": "alice"}
        resin.fs.set_request_context(user="ambient")
        wiki.update_body("Page", "again", "bob")
        assert resin.fs.request_context == {"user": "ambient"}

    def test_acting_as_restores_the_context_when_the_block_raises(
            self, resin):
        with resin.request(user="alice"):
            with pytest.raises(RuntimeError):
                with resin.fs.acting_as("bob"):
                    assert resin.fs.request_context == {"user": "bob"}
                    raise RuntimeError("file operation failed")
            assert resin.fs.request_context == {"user": "alice"}

    def test_acting_as_nests_and_restores_every_key(self, resin):
        resin.fs.set_request_context(user="ambient", role="admin")
        with resin.fs.acting_as("bob"):
            with resin.fs.acting_as("carol"):
                assert resin.fs.request_context == {"user": "carol"}
            assert resin.fs.request_context == {"user": "bob"}
        assert resin.fs.request_context == {"user": "ambient",
                                            "role": "admin"}

    def test_current_request_is_env_specific(self, resin):
        other = Resin()
        with resin.request(user="alice"):
            assert resin.current_request is not None
            assert other.current_request is None


def _injection(db):
    """Issue a query whose structure carries untrusted input."""
    payload = mark_untrusted("1 OR 1=1")
    db.query(concat("SELECT name FROM t WHERE id = ", payload))


class TestPerRequestDbFilters:
    @pytest.fixture
    def db(self, resin):
        resin.db.execute_unchecked("CREATE TABLE t (id INTEGER, name TEXT)")
        resin.db.execute_unchecked(
            "INSERT INTO t (id, name) VALUES (1, 'x')")
        return resin.db

    def test_filter_added_in_request_does_not_leak(self, resin, db):
        """Regression for the ROADMAP lifetime bug: before the RequestContext
        overlay, a filter installed inside ``resin.request(...)`` stayed on
        the database for the life of the environment."""
        with resin.request(user="alice"):
            db.add_filter(SQLGuardFilter("structure"))
            with pytest.raises(InjectionViolation):
                _injection(db)
        # The request is over: the guard is gone, the injection "succeeds".
        _injection(db)
        assert len(db.filter.filters) == 1   # only the default filter

    def test_assertion_installed_in_request_is_request_scoped(self, resin, db):
        with resin.request(user="alice"):
            resin.assertion("sql-injection").install()
            with pytest.raises(InjectionViolation):
                _injection(db)
        _injection(db)

    def test_filter_added_outside_request_persists(self, resin, db):
        db.add_filter(SQLGuardFilter("structure"))
        with pytest.raises(InjectionViolation):
            _injection(db)
        with resin.request(user="alice"):
            with pytest.raises(InjectionViolation):
                _injection(db)
        with pytest.raises(InjectionViolation):
            _injection(db)

    def test_overlay_filters_stack_on_base_filters(self, resin, db):
        hits = []

        class Spy(SQLGuardFilter):
            def filter_func(self, func, args, kwargs):
                hits.append(self.context.get("user"))
                return super().filter_func(func, args, kwargs)

        with resin.request(user="alice"):
            db.add_filter(Spy("structure"))
            db.query("SELECT name FROM t")
        assert hits == ["alice"]             # overlay context has the user

    def test_foreign_env_db_keeps_deployment_lifetime(self, resin, db):
        """A filter installed on *another* environment's database while a
        request is bound must not be captured (and then dropped) by the
        request overlay — it is a deployment-time guard for that other
        environment."""
        other = Resin()
        other.db.execute_unchecked("CREATE TABLE t (id INTEGER, name TEXT)")
        with resin.request(user="alice"):
            other.db.add_filter(SQLGuardFilter("structure"))
        with pytest.raises(InjectionViolation):
            _injection(other.db)                 # guard survived the request

    def test_sibling_requests_get_independent_overlays(self, resin, db):
        with resin.request(user="alice"):
            db.add_filter(SQLGuardFilter("structure"))
            with pytest.raises(InjectionViolation):
                _injection(db)
        with resin.request(user="bob"):
            # A fresh request starts with a clean overlay.
            _injection(db)

    def test_violation_context_names_the_request_user(self, resin, db):
        db.add_filter(SQLGuardFilter("structure"))   # shared base filter
        with resin.request(user="alice"):
            with pytest.raises(InjectionViolation) as excinfo:
                _injection(db)
        assert excinfo.value.context.get("user") == "alice"

    def test_violation_context_ignores_foreign_environment_request(self, db):
        """A request bound for *another* environment (e.g. an evaluation
        harness serving this app as a nested workload) must not have its
        principal misattributed to this environment's violations."""
        from repro.environment import Environment
        db.add_filter(SQLGuardFilter("structure"))   # shared base filter
        harness = Environment()
        with RequestContext(env=harness, user="evaluator@harness"):
            with pytest.raises(InjectionViolation) as excinfo:
                _injection(db)
        assert excinfo.value.context.get("user") != "evaluator@harness"


class TestTaintIsolationAcrossContexts:
    def test_untrusted_marks_do_not_cross_requests(self, resin):
        resin.db.execute_unchecked("CREATE TABLE notes (body TEXT)")
        with resin.request(user="alice"):
            tainted = mark_untrusted("alice-data")
            resin.db.query(concat(
                "INSERT INTO notes (body) VALUES ('", tainted, "')"))
        with resin.request(user="bob"):
            rows = resin.db.query("SELECT body FROM notes").rows
            body = rows[0]["body"]
            # Bob's request sees alice's taint on the *data* (persisted
            # policies), but his request context carries no leftover state.
            assert any(isinstance(p, UntrustedData)
                       for p in body.policies())
            assert resin.current_request.user == "bob"
            assert resin.current_request.db_filters(resin.db) == ()
