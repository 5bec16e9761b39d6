"""Integration tests: HotCRP scenarios (Sections 2, 3.1, 5.5, 6)."""

import pytest

from repro.apps.hotcrp import HotCRP
from repro.core.api import policy_get
from repro.core.exceptions import DisclosureViolation, HTTPError, PolicyViolation
from repro.environment import Environment
from repro.policies import PasswordPolicy
from repro.web.request import Request


@pytest.fixture
def site():
    site = HotCRP(Environment(), use_resin=True)
    site.register_user("victim@example.org", "victim-password")
    site.register_user("pc@example.org", "pc-password", is_pc=True)
    site.register_user("chair@example.org", "chair-password", is_pc=True,
                       priv_chair=True)
    site.submit_paper(1, "RESIN", "Abstract text. " * 30,
                      ["author@example.org"], anonymous=True)
    site.submit_paper(2, "Open Paper", "Public abstract.",
                      ["open@example.org"], anonymous=False)
    site.add_review(1, "pc@example.org", "Accept.", released=False)
    return site


@pytest.fixture
def legacy_site():
    site = HotCRP(Environment(), use_resin=False)
    site.register_user("victim@example.org", "victim-password")
    site.register_user("chair@example.org", "chair-password", is_pc=True,
                       priv_chair=True)
    return site


class TestPasswordAssertion:
    def test_password_carries_policy_through_database(self, site):
        row = site._user("victim@example.org")
        assert policy_get(row["password"]).has_type(PasswordPolicy)

    def test_reminder_mailed_to_owner(self, site):
        response = site.env.http_channel(user="victim@example.org")
        assert site.send_password_reminder("victim@example.org",
                                           response) == "mailed"
        assert site.env.mail.sent_to("victim@example.org")

    def test_preview_mode_disclosure_blocked(self, site):
        site.email_preview_mode = True
        response = site.env.http_channel(user="adversary@example.org")
        with pytest.raises(DisclosureViolation):
            site.send_password_reminder("victim@example.org", response)
        assert "victim-password" not in response.body()
        assert not site.env.mail.outbox

    def test_preview_mode_allowed_for_chair(self, site):
        site.email_preview_mode = True
        response = site.env.http_channel(user="chair@example.org",
                                         priv_chair=True)
        site.send_password_reminder("victim@example.org", response)
        assert "victim-password" in response.body()

    def test_legacy_site_leaks_password(self, legacy_site):
        legacy_site.email_preview_mode = True
        response = legacy_site.env.http_channel(user="adversary@example.org")
        legacy_site.send_password_reminder("victim@example.org", response)
        assert "victim-password" in response.body()

    def test_unknown_account(self, site):
        response = site.env.http_channel(user="x@example.org")
        assert site.send_password_reminder("nobody@example.org",
                                           response) == "unknown"

    def test_authenticate(self, site):
        assert site.authenticate("victim@example.org", "victim-password")
        assert not site.authenticate("victim@example.org", "wrong")


class TestPaperPages:
    def test_pc_member_sees_title_but_not_anonymous_authors(self, site):
        body = site.paper_page(1, "pc@example.org").body()
        assert "RESIN" in body
        assert "author@example.org" not in body
        assert "Anonymous" in body

    def test_chair_sees_authors(self, site):
        assert "author@example.org" in site.paper_page(
            1, "chair@example.org").body()

    def test_author_sees_own_names(self, site):
        assert "author@example.org" in site.paper_page(
            1, "author@example.org").body()

    def test_non_anonymous_paper_shows_authors_to_pc(self, site):
        assert "open@example.org" in site.paper_page(
            2, "pc@example.org").body()

    def test_outsider_cannot_view_paper(self, site):
        with pytest.raises(PolicyViolation):
            site.paper_page(1, "stranger@example.org")

    def test_missing_paper_404(self, site):
        with pytest.raises(HTTPError):
            site.paper_page(99, "pc@example.org")

    def test_output_buffering_keeps_page_well_formed(self, site):
        body = site.paper_page(1, "pc@example.org").body()
        assert body.count("<div class='authors'>") == 1
        assert body.rstrip().endswith("</html>")


class TestReviews:
    def test_pc_member_reads_reviews(self, site):
        assert "Accept." in site.review_page(1, "pc@example.org").body()

    def test_author_blocked_until_release(self, site):
        body = site.review_page(1, "author@example.org").body()
        assert "Accept." not in body
        assert "hidden" in body

    def test_author_allowed_after_release(self, site):
        site.add_review(2, "pc@example.org", "Weak accept.", released=True)
        body = site.review_page(2, "open@example.org").body()
        assert "Weak accept." in body


class TestLegacyReviews:
    """The unmodified site's own review check, on the roles resolved once
    when the response is built: PC members and the chair (here not on the
    PC) read every review, an author only released ones, an outsider none.
    A direct call and the routed page agree."""

    PAGES = {
        "direct": lambda site, user: site.review_page(1, user).body(),
        "served": lambda site, user: site.web.handle(
            Request("/paper/1/reviews", user=user)).body(),
    }

    @pytest.mark.parametrize("page", sorted(PAGES))
    def test_review_verdicts_before_and_after_release(self, page):
        site = HotCRP(Environment(), use_resin=False)
        site.register_user("pc@example.org", "pc-password", is_pc=True)
        site.register_user("chair@example.org", "chair-password",
                           priv_chair=True)
        site.register_user("author@example.org", "author-password")
        site.submit_paper(1, "RESIN", "Abstract.", ["author@example.org"])
        site.add_review(1, "pc@example.org", "Accept.", released=False)
        users = ["pc@example.org", "chair@example.org", "author@example.org",
                 "outsider@example.org"]

        def shown():
            verdicts = {}
            for user in users:
                body = self.PAGES[page](site, user)
                verdicts[user] = [text for text in ("Accept.", "Weak accept.")
                                  if f"<div class='review'>{text}</div>" in body]
            return verdicts

        assert shown() == {"pc@example.org": ["Accept."],
                           "chair@example.org": ["Accept."],
                           "author@example.org": [],
                           "outsider@example.org": []}
        site.add_review(1, "pc@example.org", "Weak accept.", released=True)
        assert shown() == {"pc@example.org": ["Accept.", "Weak accept."],
                           "chair@example.org": ["Accept.", "Weak accept."],
                           "author@example.org": ["Weak accept."],
                           "outsider@example.org": []}
