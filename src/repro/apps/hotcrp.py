"""HotCRP — a miniature conference management application.

This reproduces the HotCRP features and data flows the paper uses for its
evaluation (Sections 2, 3.1, 5.5, 6 and 7):

* **Password reminders + e-mail preview mode** — the combination behind the
  previously-known password disclosure (Data Flow Assertion 5, Figure 2).
* **Paper pages** — title/abstract guarded by a paper read-access assertion,
  author lists guarded by an anonymity assertion whose failure is handled
  with the output-buffering pattern of Section 5.5 ("Anonymous" is shown
  instead of the authors).
* **Review access** — only PC members and the paper's authors may read
  reviews (once the PC decision allows it).

The application runs with or without its RESIN assertions (``use_resin``),
so the evaluation harness can demonstrate that the attacks succeed on the
unprotected application and are blocked by the assertions.  The assertion
code itself is collected in the ``install_*_assertion`` methods and the two
policy classes; the paper reports 23 / 30 / 32 lines for the three HotCRP
assertions.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..channels.httpout import HTTPOutputChannel
from ..core.exceptions import AccessDenied, PolicyViolation
from ..core.policy import Policy
from ..environment import Environment
from ..policies.password import PasswordPolicy
from ..runtime_api import Resin
from ..tracking.propagation import concat, to_tainted_str
from ..web.response import Response
from ..web.sanitize import sql_quote

#: Service name under which a site registers itself on its environment.
SITE_SERVICE = "hotcrp.site"


class PaperPolicy(Policy):
    """Paper title/abstract may flow only to PC members and the paper's own
    authors (the "missing access checks for papers" assertion, 30 LOC in the
    paper)."""

    ENFORCED_TYPES = frozenset({"http", "socket", "email"})

    def __init__(self, paper_id: int, allowed_users):
        self.paper_id = paper_id
        self.allowed_users = frozenset(str(u) for u in allowed_users)

    def export_check(self, context) -> None:
        if context.get("type") not in self.ENFORCED_TYPES:
            return
        user = context.get("user") or context.get("email")
        if user is not None and str(user) in self.allowed_users:
            return
        if context.get("is_pc") or context.get("priv_chair"):
            return
        raise AccessDenied(
            f"user {user!r} may not read paper #{self.paper_id}",
            policy=self,
            context=context,
        )


class AuthorListPolicy(Policy):
    """The author list of an anonymous submission may not flow to PC members
    (the 32-LOC assertion; it issues database queries to find the paper's
    authors and anonymity flag, which is why it is the longest one)."""

    ENFORCED_TYPES = frozenset({"http", "socket", "email"})

    def __init__(self, paper_id: int, authors, anonymous: bool):
        self.paper_id = paper_id
        self.authors = frozenset(str(a) for a in authors)
        self.anonymous = bool(anonymous)

    def export_check(self, context) -> None:
        if context.get("type") not in self.ENFORCED_TYPES:
            return
        user = context.get("user") or context.get("email")
        if user is not None and str(user) in self.authors:
            return
        if context.get("priv_chair"):
            return
        if not self.anonymous and context.get("is_pc"):
            return
        raise AccessDenied(
            f"author list of paper #{self.paper_id} is anonymous",
            policy=self,
            context=context,
        )


class ReviewPolicy(Policy):
    """Reviews may be read only by PC members (and by authors once reviews
    are released)."""

    ENFORCED_TYPES = frozenset({"http", "socket", "email"})

    def __init__(self, paper_id: int, authors, released: bool = False):
        self.paper_id = paper_id
        self.authors = frozenset(str(a) for a in authors)
        self.released = bool(released)

    def export_check(self, context) -> None:
        if context.get("type") not in self.ENFORCED_TYPES:
            return
        if context.get("is_pc") or context.get("priv_chair"):
            return
        user = context.get("user") or context.get("email")
        if self.released and user is not None and str(user) in self.authors:
            return
        raise AccessDenied(
            f"user {user!r} may not read reviews of paper #{self.paper_id}",
            policy=self,
            context=context,
        )


class HotCRP:
    """The conference site."""

    def __init__(self, env: Optional[Environment] = None, use_resin: bool = True):
        self.env = env if env is not None else Environment()
        self.resin = Resin(self.env)
        self.use_resin = use_resin
        #: Site-wide option: show outgoing mail in the browser instead of
        #: sending it (the feature that interacts badly with reminders).
        self.email_preview_mode = False
        self._setup_schema()
        self.env.services.register(SITE_SERVICE, self)
        self.web = self._build_web()

    def _build_web(self):
        """The site's routed HTTP front end.

        A request-phase middleware looks the principal up once per request,
        like HotCRP's ``$Me``, as ``_response_for`` does for direct calls: PC
        membership and the chair privilege land on the response channel's
        context, where the policies and the page methods look for them; the
        page methods then stream into the routed response.
        """
        web = self.resin.app("hotcrp")

        @web.middleware
        def resolve_principal(request, response):
            self._response_for(request.user, response)

        @web.route("/paper/<int:paper_id>")
        def paper(request, response, paper_id):
            self.paper_page(paper_id, request.user, response=response)

        @web.route("/paper/<int:paper_id>/reviews")
        def reviews(request, response, paper_id):
            self.review_page(paper_id, request.user, response=response)

        @web.route("/password/reminder", methods=["POST"])
        def remind(request, response):
            outcome = self.send_password_reminder(
                str(request.require("email")), response
            )
            return Response(status=202).header("X-Reminder", outcome)

        return web

    # -- schema and fixtures ----------------------------------------------------------

    def _setup_schema(self) -> None:
        db = self.env.db
        db.execute_unchecked(
            "CREATE TABLE IF NOT EXISTS users "
            "(email TEXT, password TEXT, is_pc INTEGER, priv_chair INTEGER)"
        )
        db.execute_unchecked(
            "CREATE TABLE IF NOT EXISTS papers "
            "(id INTEGER, title TEXT, abstract TEXT, authors TEXT, "
            "anonymous INTEGER)"
        )
        db.execute_unchecked(
            "CREATE TABLE IF NOT EXISTS reviews "
            "(paper_id INTEGER, reviewer TEXT, body TEXT, released INTEGER)"
        )
        # Secondary indexes on the hot lookup columns (login by email,
        # paper page by id, reviews by paper).  Planner candidates only:
        # the executor re-applies every WHERE, so verdicts never change.
        db.create_index("users", "email")
        db.create_index("papers", "id")
        db.create_index("reviews", "paper_id")

    # -- account management ---------------------------------------------------------------

    def register_user(
        self,
        email: str,
        password: str,
        is_pc: bool = False,
        priv_chair: bool = False,
    ) -> None:
        """Create an account.  With RESIN, the password is annotated with a
        ``PasswordPolicy`` the moment it is set (Figure 2); the policy then
        follows the password into the database and back."""
        password = to_tainted_str(password)
        if self.use_resin:
            password = self.resin.policy(PasswordPolicy, email).on(password)
        query = concat(
            "INSERT INTO users (email, password, is_pc, priv_chair) VALUES ('",
            sql_quote(email),
            "', '",
            sql_quote(password),
            "', ",
            "1" if is_pc else "0",
            ", ",
            "1" if priv_chair else "0",
            ")",
        )
        self.env.db.query(query)

    def authenticate(self, email: str, password: str) -> bool:
        row = self._user(email)
        return row is not None and str(row["password"]) == str(password)

    def _user(self, email: str):
        result = self.env.db.query(
            concat(
                "SELECT email, password, is_pc, priv_chair FROM users "
                "WHERE email = '",
                sql_quote(email),
                "'",
            )
        )
        return result.rows[0] if result.rows else None

    def _roles(self, email: Optional[str]) -> Tuple[bool, bool]:
        """``(is_pc, priv_chair)`` of ``email``'s account, from one lookup."""
        row = self._user(email) if email else None
        return bool(row and int(row["is_pc"])), bool(row and int(row["priv_chair"]))

    def is_pc_member(self, email: Optional[str]) -> bool:
        return self._roles(email)[0]

    def is_chair(self, email: Optional[str]) -> bool:
        return self._roles(email)[1]

    # -- password reminder (the running example) --------------------------------------------

    def send_password_reminder(
        self, account_email: str, response: HTTPOutputChannel
    ) -> str:
        """Send (or preview) a password reminder for ``account_email``.

        The reminder is always addressed to the account holder's e-mail
        address; the bug is that in e-mail preview mode the composed message
        is written to the *requesting* browser instead of being mailed
        (Section 2).  The RESIN password assertion catches that flow at the
        HTTP boundary regardless of which feature combination triggered it.
        """
        row = self._user(account_email)
        if row is None:
            response.write("Unknown account.\n")
            return "unknown"
        body = concat(
            "Dear user,\n\nYour HotCRP password is: ",
            row["password"],
            "\n\nRegards, the submission site\n",
        )
        if self.email_preview_mode:
            # Email preview: show the message in the browser.
            response.write("<h1>Email preview</h1><pre>")
            response.write(body)
            response.write("</pre>")
            return "previewed"
        self.env.mail.send(
            to=account_email, subject="HotCRP password reminder", body=body
        )
        response.write("A reminder has been sent to your address.\n")
        return "mailed"

    # -- papers -----------------------------------------------------------------------------------

    def submit_paper(
        self,
        paper_id: int,
        title: str,
        abstract: str,
        authors: List[str],
        anonymous: bool = True,
    ) -> None:
        author_field = ", ".join(authors)
        title = to_tainted_str(title)
        abstract = to_tainted_str(abstract)
        author_text = to_tainted_str(author_field)
        if self.use_resin:
            allowed = set(authors)
            title = self.resin.taint(title, PaperPolicy(paper_id, allowed))
            abstract = self.resin.taint(abstract, PaperPolicy(paper_id, allowed))
            author_text = self.resin.taint(
                author_text, AuthorListPolicy(paper_id, authors, anonymous)
            )
        query = concat(
            "INSERT INTO papers (id, title, abstract, authors, anonymous) "
            "VALUES (",
            str(int(paper_id)),
            ", '",
            sql_quote(title),
            "', '",
            sql_quote(abstract),
            "', '",
            sql_quote(author_text),
            "', ",
            "1" if anonymous else "0",
            ")",
        )
        self.env.db.query(query)

    def add_review(
        self, paper_id: int, reviewer: str, body: str, released: bool = False
    ) -> None:
        paper = self._paper(paper_id)
        authors = [a.strip() for a in str(paper["authors"]).split(",")]
        body = to_tainted_str(body)
        if self.use_resin:
            body = self.resin.taint(body, ReviewPolicy(paper_id, authors, released))
        self.env.db.query(
            concat(
                "INSERT INTO reviews (paper_id, reviewer, body, released) VALUES (",
                str(int(paper_id)),
                ", '",
                sql_quote(reviewer),
                "', '",
                sql_quote(body),
                "', ",
                "1" if released else "0",
                ")",
            )
        )

    def _paper(self, paper_id: int):
        result = self.env.db.query(
            f"SELECT id, title, abstract, authors, anonymous FROM papers "
            f"WHERE id = {int(paper_id)}"
        )
        if not result.rows:
            from ..core.exceptions import HTTPError

            raise HTTPError(404, f"no such paper: {paper_id}")
        return result.rows[0]

    def _response_for(self, user: Optional[str], response=None) -> HTTPOutputChannel:
        """``response`` (a fresh channel by default) with ``user`` and their
        roles on its context, from one users lookup."""
        response = self.env.http_channel() if response is None else response
        is_pc, priv_chair = self._roles(user)
        response.set_user(user, priv_chair=priv_chair)
        response.context["is_pc"] = is_pc
        return response

    def paper_page(
        self,
        paper_id: int,
        user: Optional[str],
        response: Optional[HTTPOutputChannel] = None,
    ) -> HTTPOutputChannel:
        """Generate the paper view page for ``user``.

        This is the page measured in Section 7.1: title, abstract and the
        author list (or "Anonymous"), plus the surrounding boilerplate.  With
        RESIN, the author list is *always* written inside an output-buffered
        try block; the anonymity assertion raising is the access check
        (Section 5.5).  Without RESIN, the application performs the explicit
        check itself — correctly on this path, which is exactly why the
        paper's point is about the paths programmers forget.

        A ``response`` passed in must come from ``_response_for(user, ...)``
        or the routed middleware for the same ``user``: the checks read
        ``user``'s roles from its context.
        """
        if response is None:
            response = self._response_for(user)
        paper = self._paper(paper_id)
        response.write("<html><head><title>HotCRP: paper ")
        response.write(str(paper_id))
        response.write("</title></head><body>\n")
        response.write("<div class='banner'>" + _BANNER + "</div>\n")
        response.write("<h1>")
        response.write(paper["title"])
        response.write("</h1>\n<div class='abstract'><p>")
        response.write(paper["abstract"])
        response.write("</p></div>\n<div class='authors'>Authors: ")
        self._write_author_list(paper, user, response)
        response.write("</div>\n")
        response.write(_PAGE_FOOTER)
        response.write("</body></html>\n")
        return response

    def _write_author_list(
        self, paper, user: Optional[str], response: HTTPOutputChannel
    ) -> None:
        if self.use_resin:
            # Always try to show the authors; the AuthorListPolicy raises for
            # anonymous submissions and the handler substitutes "Anonymous".
            response.start_buffering()
            try:
                response.write(paper["authors"])
                response.release_buffer()
            except PolicyViolation:
                response.discard_buffer("Anonymous")
            return
        # Original HotCRP behaviour: an explicit check in the display code
        # (the chair flag was already resolved when the response was built,
        # like HotCRP's global $Me).
        if int(paper["anonymous"]) and not response.context.get("priv_chair"):
            response.write("Anonymous")
        else:
            response.write(paper["authors"])

    def review_page(
        self,
        paper_id: int,
        user: Optional[str],
        response: Optional[HTTPOutputChannel] = None,
    ) -> HTTPOutputChannel:
        """Show the reviews of a paper to ``user``; a ``response`` passed in
        must be built for ``user`` as ``paper_page`` requires."""
        if response is None:
            response = self._response_for(user)
        reviews = self.env.db.query(
            f"SELECT reviewer, body, released FROM reviews "
            f"WHERE paper_id = {int(paper_id)}"
        )
        response.write(f"<h1>Reviews for paper #{paper_id}</h1>\n")
        paper = self._paper(paper_id)
        authors = [a.strip() for a in str(paper["authors"]).split(",")]
        staff = response.context.get("is_pc") or response.context.get("priv_chair")
        for review in reviews:
            if not self.use_resin:
                # The original code's (correct) explicit check, on the roles
                # resolved with the response: only PC members and authors of
                # released reviews may see a review.
                if not (staff or (int(review["released"]) and user in authors)):
                    continue
            response.start_buffering()
            try:
                response.write("<div class='review'>")
                response.write(review["body"])
                response.write("</div>\n")
                response.release_buffer()
            except PolicyViolation:
                response.discard_buffer("<div class='review'>hidden</div>\n")
        return response


#: Static page chrome; sized so that a generated paper page is in the same
#: ballpark as the 8.5 KB page measured in Section 7.1.
_BANNER = ("HotCRP conference management " * 8).strip()

_NAV_LINE = (
    "<span class='nav'>submissions &middot; reviews &middot; profile "
    "&middot; search &middot; help</span>\n"
)

_PAGE_FOOTER = "<div class='footer'>" + _NAV_LINE * 60 + "</div>\n"
