"""Environment-scoped application services: the ServiceRegistry, its
resolution helpers, and the phpBB board as an environment service."""

import threading

import pytest

from repro.core.exceptions import AccessDenied
from repro.core.request_context import RequestContext
from repro.core.services import ServiceRegistry, resolve_service
from repro.environment import Environment
from repro.runtime_api import Resin


class TestServiceRegistry:
    def test_register_get_resolve(self):
        registry = ServiceRegistry()
        sentinel = object()
        assert registry.register("app.thing", sentinel) is sentinel
        assert registry.get("app.thing") is sentinel
        assert registry.resolve("app.thing") is sentinel
        assert "app.thing" in registry
        assert registry.names() == ["app.thing"]
        assert len(registry) == 1

    def test_get_default_and_resolve_raises(self):
        registry = ServiceRegistry()
        assert registry.get("missing") is None
        assert registry.get("missing", 42) == 42
        with pytest.raises(LookupError, match="no service 'missing'"):
            registry.resolve("missing")

    def test_register_replaces_unless_told_otherwise(self):
        registry = ServiceRegistry()
        registry.register("svc", "first")
        registry.register("svc", "second")
        assert registry.get("svc") == "second"
        with pytest.raises(LookupError, match="already registered"):
            registry.register("svc", "third", replace=False)
        assert registry.get("svc") == "second"

    def test_unregister(self):
        registry = ServiceRegistry()
        registry.register("svc", "value")
        assert registry.unregister("svc") == "value"
        assert registry.unregister("svc") is None
        assert "svc" not in registry

    def test_environment_registries_are_scoped(self):
        env_a = Environment()
        env_b = Environment()
        env_a.services.register("board", "A")
        assert env_a.services.get("board") == "A"
        assert env_b.services.get("board") is None
        assert env_a.services.env is env_a


class TestResolution:
    def test_context_env_wins_over_request_env(self):
        env_ctx = Environment()
        env_req = Environment()
        env_ctx.services.register("svc", "from-context")
        env_req.services.register("svc", "from-request")
        channel = env_ctx.http_channel(user="u")
        with RequestContext(env=env_req, user="u"):
            assert resolve_service("svc", channel.context) == "from-context"

    def test_falls_back_to_request_env_then_default(self):
        env = Environment()
        env.services.register("svc", "from-request")
        with RequestContext(env=env, user="u"):
            assert resolve_service("svc", {}) == "from-request"
        assert resolve_service("svc", {}, default="fallback") == "fallback"

    def test_request_context_service_helper(self):
        env = Environment()
        env.services.register("svc", "value")
        rctx = RequestContext(env=env, user="u")
        assert rctx.service("svc") == "value"
        assert rctx.service("missing", "d") == "d"
        assert RequestContext(env=None).service("svc") is None

    def test_resin_facade_accessors(self):
        resin = Resin(Environment())
        resin.services.register("svc", "value")
        assert resin.services is resin.env.services
        assert resin.service("svc") == "value"
        assert resin.service("missing", "d") == "d"


class TestPhpBBBoardService:
    def _board(self, **kwargs):
        from repro.apps.phpbb import PhpBB
        board = PhpBB(Environment(), use_xss_assertion=False, **kwargs)
        board.create_forum(1, "public")
        board.create_forum(2, "staff", allowed_users=["admin"])
        board.post_message(10, 2, "admin", "salaries", "the secret salaries")
        board.post_message(11, 1, "admin", "welcome", "hello world")
        return board

    def test_board_registered_as_environment_service(self):
        from repro.apps import phpbb
        board = self._board()
        assert board.env.services.get(phpbb.BOARD_SERVICE) is board

    def test_current_board_resolves_through_request_context(self):
        from repro.apps import phpbb
        board = self._board()
        assert resolve_service(phpbb.BOARD_SERVICE) is None
        with RequestContext(env=board.env, user="admin"):
            assert resolve_service(phpbb.BOARD_SERVICE) is board

    def test_no_module_global_board_beyond_the_shim(self):
        """The contextvar, the module global and its deprecation shim are
        all gone: the board is reachable only as an environment service."""
        from repro.apps import phpbb
        assert "_BOARD_VAR" not in vars(phpbb)
        assert "CURRENT_BOARD" not in vars(phpbb)

    def test_forum_policy_enforced_at_email_boundary(self):
        """The mail transport forwards its environment to every per-message
        channel, so ForumMessagePolicy still resolves the board (and denies)
        when a restricted message is e-mailed outside any request."""
        board = self._board()
        body = board.env.db.query(
            "SELECT body FROM messages WHERE msg_id = 10").scalar()
        with pytest.raises(AccessDenied):
            board.env.mail.send(to="mallory@example.org",
                                subject="leak", body=body)
        assert board.env.mail.sent_to("mallory@example.org") == []
        board.env.db.query(
            "UPDATE forums SET allowed_users = 'admin,a@b.c' "
            "WHERE forum_id = 2")
        board.env.mail.send(to="a@b.c", subject="ok", body=body)
        assert len(board.env.mail.sent_to("a@b.c")) == 1

    def test_two_boards_enforce_independently_under_concurrency(self):
        """Policies resolve the board through the channel's environment:
        concurrent exports against two boards never consult each other's
        permission tables."""
        board_a = self._board()
        board_b = self._board()
        # Same forum id, different membership: board B's staff forum also
        # admits "auditor" — only a B-scoped lookup lets auditor read.
        board_b.env.db.query(
            "UPDATE forums SET allowed_users = 'admin,auditor' "
            "WHERE forum_id = 2")
        barrier = threading.Barrier(2)
        outcomes = {}

        def attempt(name, board, user):
            barrier.wait(timeout=5)
            try:
                body = board.printable_view(10, user).body()
                outcomes[name] = ("ok", "secret salaries" in body)
            except AccessDenied:
                outcomes[name] = ("denied", None)

        threads = [
            threading.Thread(target=attempt,
                             args=("a", board_a, "auditor")),
            threading.Thread(target=attempt,
                             args=("b", board_b, "auditor")),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert outcomes["a"] == ("denied", None)     # A never admits auditor
        assert outcomes["b"] == ("ok", True)         # B does


class TestHotCRPSiteService:
    def _site(self, **kwargs):
        from repro.apps.hotcrp import HotCRP
        site = HotCRP(Environment(), **kwargs)
        site.register_user("victim@example.org", "victim-password")
        return site

    def test_site_registered_as_environment_service(self):
        from repro.apps import hotcrp
        site = self._site()
        assert site.env.services.get(hotcrp.SITE_SERVICE) is site
        assert resolve_service(hotcrp.SITE_SERVICE,
                               site.env.http_channel().context) is site

    def test_current_site_resolves_through_request_context(self):
        from repro.apps import hotcrp
        site = self._site()
        assert resolve_service(hotcrp.SITE_SERVICE) is None
        with RequestContext(env=site.env, user="victim@example.org"):
            assert resolve_service(hotcrp.SITE_SERVICE) is site

    def test_two_sites_isolated_across_environments(self):
        from repro.apps import hotcrp
        site_a = self._site()
        site_b = self._site()
        assert site_a.env.services.get(hotcrp.SITE_SERVICE) is site_a
        assert site_b.env.services.get(hotcrp.SITE_SERVICE) is site_b
        assert site_a.env.services.get(hotcrp.SITE_SERVICE) is not site_b


class TestMoinMoinWikiService:
    def _wiki(self, **kwargs):
        from repro.apps.moinmoin import MoinMoin
        wiki = MoinMoin(Environment(), **kwargs)
        wiki.update_body("Front", "#acl All:read alice:read,write\nhello",
                         "alice")
        return wiki

    def test_wiki_registered_as_environment_service(self):
        from repro.apps import moinmoin
        wiki = self._wiki()
        assert wiki.env.services.get(moinmoin.WIKI_SERVICE) is wiki
        assert resolve_service(moinmoin.WIKI_SERVICE,
                               wiki.env.http_channel().context) is wiki

    def test_current_wiki_resolves_through_request_context(self):
        from repro.apps import moinmoin
        wiki = self._wiki()
        assert resolve_service(moinmoin.WIKI_SERVICE) is None
        with RequestContext(env=wiki.env, user="alice"):
            assert resolve_service(moinmoin.WIKI_SERVICE) is wiki

    def test_two_wikis_isolated_across_environments(self):
        """Same page names, different content and ACLs: each environment's
        routed front end serves (and denies) from its own wiki only."""
        from repro.apps import moinmoin
        from repro.web import Request
        wiki_a = self._wiki()
        wiki_b = self._wiki()
        wiki_b.update_body("Front",
                           "#acl bob:read alice:read,write\nB-only text",
                           "alice")
        assert wiki_a.env.services.get(moinmoin.WIKI_SERVICE) is wiki_a
        assert wiki_b.env.services.get(moinmoin.WIKI_SERVICE) is wiki_b
        page_a = wiki_a.web.handle(Request("/wiki/Front", user="carol"))
        assert "hello" in page_a.body()
        with pytest.raises(AccessDenied):
            wiki_b.web.handle(Request("/wiki/Front", user="carol"))
        page_b = wiki_b.web.handle(Request("/wiki/Front", user="bob"))
        assert "B-only text" in page_b.body()
