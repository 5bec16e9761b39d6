"""The five evaluation applications behind their routed web front ends.

Each application now publishes a method-aware, parameterized route table
(``app.web``); these tests drive the same attack and legitimate paths the
Table 4 scenarios use, but through HTTP requests — checking that the RESIN
assertions keep firing at the boundary no matter which surface reached it.
"""

import warnings

import pytest

from repro.core.exceptions import AccessDenied, PolicyViolation, ResinWarning
from repro.environment import Environment
from repro.web import Request


class TestPhpBBFrontend:
    @pytest.fixture
    def board(self):
        from repro.apps.phpbb import PhpBB
        board = PhpBB(Environment(), use_xss_assertion=False)
        board.create_forum(1, "public")
        board.create_forum(2, "staff", allowed_users=["admin"])
        board.post_message(10, 2, "admin", "salaries", "the secret salaries")
        board.post_message(11, 1, "admin", "welcome", "hello world")
        return board

    def test_topic_view_and_permissions(self, board):
        page = board.web.handle(Request("/topic/11", user="mallory"))
        assert "hello world" in page.body()
        admin_page = board.web.handle(Request("/topic/10", user="admin"))
        assert "secret salaries" in admin_page.body()

    def test_buggy_printable_route_blocked_by_policy(self, board):
        with pytest.raises(AccessDenied):
            board.web.handle(Request("/topic/10/printable", user="mallory"))

    def test_posting_is_method_aware(self, board):
        created = board.web.handle(Request(
            "/topic", method="POST", user="eve",
            params={"msg_id": "12", "forum_id": "1", "subject": "hi",
                    "body": "new post"}))
        assert created.status == 201
        assert board.web.handle(Request("/topic", method="GET")).status == 405
        page = board.web.handle(Request("/topic/12", user="mallory"))
        assert "new post" in page.body()

    def test_xss_assertion_rides_on_routed_responses(self):
        from repro.apps.phpbb import PhpBB
        from repro.core.exceptions import InjectionViolation
        board = PhpBB(Environment(), use_read_assertion=False)
        board.create_forum(1, "public")
        board.post_message(11, 1, "admin", "welcome", "hello world")
        payload = "<script>steal()</script>"
        with pytest.raises(InjectionViolation):
            board.web.handle(Request("/search", params={"q": payload},
                                     user="viewer"))


class TestMoinMoinFrontend:
    @pytest.fixture
    def wiki(self):
        from repro.apps.moinmoin import MoinMoin
        wiki = MoinMoin(Environment())
        wiki.update_body("SecretPlans",
                         "#acl alice:read,write\nthe secret plans", "alice")
        wiki.update_body("Public/Page",
                         "#acl All:read alice:read,write\nwelcome", "alice")
        return wiki

    def test_view_route_with_path_parameter(self, wiki):
        page = wiki.web.handle(Request("/wiki/Public/Page", user="bob"))
        assert "welcome" in page.body()

    def test_raw_route_blocked_by_page_policy(self, wiki):
        with pytest.raises(AccessDenied):
            wiki.web.handle(Request("/wiki/SecretPlans/raw", user="mallory"))

    def test_edit_is_method_aware(self, wiki):
        saved = wiki.web.handle(Request(
            "/wiki/Public/Page", method="POST", user="alice",
            params={"text": "#acl All:read alice:read,write\nv2"}))
        assert saved.status == 201
        assert "revision 2" in saved.body()
        with pytest.raises(AccessDenied):
            wiki.web.handle(Request(
                "/wiki/Public/Page", method="POST", user="mallory",
                params={"text": "defaced"}))


class TestHotCRPFrontend:
    @pytest.fixture
    def site(self):
        from repro.apps.hotcrp import HotCRP
        site = HotCRP(Environment())
        site.register_user("victim@example.org", "victim-password")
        site.register_user("pc@example.org", "pc-password", is_pc=True)
        site.submit_paper(1, "Data Flow Assertions", "We describe RESIN.",
                          ["alice@authors.org"], anonymous=True)
        return site

    def test_paper_route_resolves_pc_principal(self, site):
        page = site.web.handle(Request("/paper/1", user="pc@example.org"))
        assert "Data Flow Assertions" in page.body()
        assert "Anonymous" in page.body()
        assert "alice@authors.org" not in page.body()

    def test_paper_route_converter_failure_is_404(self, site):
        assert site.web.handle(
            Request("/paper/not-a-number", user="pc@example.org")).status == 404

    def test_outsider_cannot_read_paper(self, site):
        with pytest.raises(AccessDenied):
            site.web.handle(Request("/paper/1", user="outsider@example.org"))

    def test_password_reminder_route(self, site):
        response = site.web.handle(Request(
            "/password/reminder", method="POST",
            params={"email": "victim@example.org"},
            user="victim@example.org"))
        assert response.status == 202
        assert ("X-Reminder", "mailed") in response.headers
        assert any(m.to == "victim@example.org"
                   for m in site.env.mail.outbox)

    def test_preview_reminder_blocked_for_adversary(self, site):
        site.email_preview_mode = True
        with pytest.raises(PolicyViolation):
            site.web.handle(Request(
                "/password/reminder", method="POST",
                params={"email": "victim@example.org"},
                user="adversary@example.org"))


class TestFileManagerFrontend:
    @pytest.fixture
    def manager(self):
        from repro.apps.filemanager import FileThingie
        return FileThingie(Environment())

    def _login(self, manager, user):
        response = manager.web.handle(Request(
            "/login", method="POST", params={"user": user}))
        assert response.status == 201
        return {"sid": response.body()}

    def test_session_cookie_flow(self, manager):
        cookies = self._login(manager, "alice")
        saved = manager.web.handle(Request(
            "/files/notes.txt", method="POST",
            params={"content": "alice's notes"}, cookies=cookies))
        assert saved.status == 201
        listing = manager.web.handle(Request("/files", cookies=cookies))
        assert "notes.txt" in listing.body()
        read = manager.web.handle(Request("/files/notes.txt",
                                          cookies=cookies))
        assert "alice's notes" in read.body()

    def test_unauthenticated_requests_are_401(self, manager):
        assert manager.web.handle(Request("/files")).status == 401

    def test_traversal_through_the_web_surface_still_caught(self, manager):
        alice = self._login(manager, "alice")
        manager.web.handle(Request("/files/notes.txt", method="POST",
                                   params={"content": "private"},
                                   cookies=alice))
        mallory = self._login(manager, "mallory")
        with pytest.raises(PolicyViolation):
            manager.web.handle(Request(
                "/files/docs/../../alice/owned.txt", method="POST",
                params={"content": "owned"}, cookies=mallory))


class TestAdmissionsFrontend:
    @pytest.fixture
    def system(self):
        from repro.apps.admissions import AdmissionsSystem
        system = AdmissionsSystem(Environment())
        system.add_applicant(1, "Alice", "systems", 780, notes="strong")
        system.add_applicant(2, "Bob", "theory", 650,
                             notes="confidential: weak")
        return system

    def test_search_and_typed_lookup(self, system):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            search = system.web.handle(Request("/applicants",
                                               params={"name": "Alice"}))
            lookup = system.web.handle(Request("/applicants/1"))
        assert "name=Alice" in search.body()
        assert "applicant_id=1" in lookup.body()
        # The rows keep their cells' policies on the way to the page.
        assert not [w for w in caught if issubclass(w.category, ResinWarning)]

    def test_injection_through_routed_screen_blocked(self, system):
        with pytest.raises(PolicyViolation):
            system.web.handle(Request("/applicants/by-area",
                                      params={"area": "x' OR '1'='1"}))

    def test_decision_update_is_post_only(self, system):
        updated = system.web.handle(Request(
            "/applicants/1/decision", method="POST",
            params={"decision": "admit"}))
        assert "updated 1 rows" in updated.body()
        assert system.web.handle(
            Request("/applicants/1/decision")).status == 405
