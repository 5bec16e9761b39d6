"""phpBB — a miniature web forum.

Reproduces the phpBB evaluation scenarios (Section 6):

**Read access control.**  Forums have per-forum read permissions; messages
inherit them.  The paper's assertion (23 lines) attaches a policy to every
message body when it is stored; the policy re-uses the board's own
``user_may_read_forum`` check.  Four access-control bugs are reproduced:

* the "printable view" code path forgets the permission check
  (previously-known bug);
* the *reply quoting* path lets a user reply to a message they may not read
  and quotes the original into the reply form (newly-discovered bug,
  Section 6.3);
* an RSS-feed plugin exports recent messages with no permission check
  (plugin bug);
* a search plugin shows message excerpts with no permission check
  (plugin bug).

**Cross-site scripting.**  The assertion (22 lines) marks request parameters
and data read from external sockets as untrusted and requires every
character of HTML output derived from them to be HTML-sanitized.  Four XSS
bugs are reproduced, including the whois-lookup path of Section 6.3 where
the malicious input arrives from a *whois server*, not from the browser.

The running board is published as an **environment service**
(``env.services``, name :data:`BOARD_SERVICE`): ``ForumMessagePolicy``
resolves the board through the environment owning the channel being checked,
so N boards serving concurrently in one interpreter never observe each
other.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..channels.httpout import HTTPOutputChannel
from ..channels.socketchan import SocketChannel
from ..core.exceptions import AccessDenied, HTTPError
from ..core.policy import Policy
from ..core.services import resolve_service
from ..environment import Environment
from ..policies.untrusted import UntrustedData
from ..runtime_api import Resin
from ..tracking.propagation import concat, to_tainted_str
from ..web.response import Response
from ..web.routing import UntrustedInputMiddleware
from ..web.sanitize import html_escape, sql_quote

#: Service name under which a board registers itself on its environment.
BOARD_SERVICE = "phpbb.board"


class ForumMessagePolicy(Policy):
    """A forum message may flow out only to users who may read its forum."""

    ENFORCED_TYPES = frozenset({"http", "socket", "email"})

    def __init__(self, forum_id: int):
        self.forum_id = int(forum_id)

    def export_check(self, context) -> None:
        if context.get("type") not in self.ENFORCED_TYPES:
            return
        # The board the assertion consults is the one owning the channel the
        # data is crossing (context.env.services), falling back to the
        # active request's environment — never a process-wide global.
        board = resolve_service(BOARD_SERVICE, context)
        if board is None:
            return
        user = context.get("user") or context.get("email")
        if board.user_may_read_forum(user, self.forum_id):
            return
        raise AccessDenied(
            f"user {user!r} may not read forum #{self.forum_id}",
            policy=self,
            context=context,
        )


class PhpBB:
    """The forum application."""

    def __init__(
        self,
        env: Optional[Environment] = None,
        use_read_assertion: bool = True,
        use_xss_assertion: bool = True,
    ):
        self.env = env if env is not None else Environment()
        self.resin = Resin(self.env)
        self.use_read_assertion = use_read_assertion
        self.use_xss_assertion = use_xss_assertion
        self._setup_schema()
        self.env.services.register(BOARD_SERVICE, self)
        self.web = self._build_web()

    def _build_web(self):
        """The board's routed HTTP front end.

        Every message view (the correct one and the four buggy ones) is a
        parameterized route; posting is a separate ``POST`` method on the
        same URL space, so requesting ``DELETE /topic/7`` is a 405 while
        ``GET /nonsense`` stays a 404.  With the XSS assertion enabled the
        untrusted-input middleware marks request parameters and the HTML
        guard rides on every response channel.
        """
        web = self.resin.app("phpbb")
        if self.use_xss_assertion:
            web.middleware(UntrustedInputMiddleware())
            self.resin.assertion("xss").install(web)

        @web.route("/topic/<int:msg_id>")
        def topic(request, response, msg_id):
            self.view_message(msg_id, request.user, response=response)

        @web.route("/topic/<int:msg_id>/printable")
        def printable(request, response, msg_id):
            self.printable_view(msg_id, request.user, response=response)

        @web.route("/topic/<int:msg_id>/reply")
        def reply(request, response, msg_id):
            self.reply_form(msg_id, request.user, response=response)

        @web.route("/topic", methods=["POST"])
        def post(request, response):
            self.post_message(
                int(request.require("msg_id")),
                int(request.require("forum_id")),
                request.user,
                request.require("subject"),
                request.require("body"),
            )
            return Response("posted", status=201)

        @web.route("/rss")
        def rss(request, response):
            self.rss_feed(request.user, response=response)

        @web.route("/search")
        def search(request, response):
            needle = request.require("q")
            self.highlight_search(needle, request.user, response=response)
            self.search_excerpts(needle, request.user, response=response)

        @web.route("/profile/<user>")
        def profile(request, response, user):
            self.profile_page(user, request.user, response=response)

        return web

    def _setup_schema(self) -> None:
        db = self.env.db
        db.execute_unchecked(
            "CREATE TABLE IF NOT EXISTS forums "
            "(forum_id INTEGER, name TEXT, allowed_users TEXT)"
        )
        db.execute_unchecked(
            "CREATE TABLE IF NOT EXISTS messages "
            "(msg_id INTEGER, forum_id INTEGER, author TEXT, subject TEXT, "
            "body TEXT)"
        )
        db.execute_unchecked(
            "CREATE TABLE IF NOT EXISTS signatures (user TEXT, signature TEXT)"
        )

    # -- forums and permissions -----------------------------------------------------

    def create_forum(
        self,
        forum_id: int,
        name: str,
        allowed_users: Optional[Iterable[str]] = None,
    ) -> None:
        """Create a forum.  ``allowed_users=None`` means public."""
        allowed = "*" if allowed_users is None else ",".join(allowed_users)
        self.env.db.query(
            concat(
                "INSERT INTO forums (forum_id, name, allowed_users) VALUES (",
                str(int(forum_id)),
                ", '",
                sql_quote(name),
                "', '",
                sql_quote(allowed),
                "')",
            )
        )

    def user_may_read_forum(self, user: Optional[str], forum_id: int) -> bool:
        result = self.env.db.query(
            f"SELECT allowed_users FROM forums WHERE forum_id = {int(forum_id)}"
        )
        if not result.rows:
            return False
        allowed = str(result.rows[0]["allowed_users"])
        if allowed == "*":
            return True
        return user is not None and user in allowed.split(",")

    # -- posting ----------------------------------------------------------------------------

    def post_message(
        self, msg_id: int, forum_id: int, author: str, subject: str, body: str
    ) -> None:
        body = to_tainted_str(body)
        if self.use_read_assertion:
            # The 23-line read assertion: annotate the message body with a
            # policy that defers to the board's own permission check.
            body = self.resin.taint(body, ForumMessagePolicy(forum_id))
        self.env.db.query(
            concat(
                "INSERT INTO messages (msg_id, forum_id, author, subject, body) "
                "VALUES (",
                str(int(msg_id)),
                ", ",
                str(int(forum_id)),
                ", '",
                sql_quote(author),
                "', '",
                sql_quote(subject),
                "', '",
                sql_quote(body),
                "')",
            )
        )

    def set_signature(self, user: str, signature: str) -> None:
        signature = to_tainted_str(signature)
        if self.use_xss_assertion:
            signature = self.resin.taint(signature, UntrustedData("signature"))
        self.env.db.query(
            concat(
                "INSERT INTO signatures (user, signature) VALUES ('",
                sql_quote(user),
                "', '",
                sql_quote(signature),
                "')",
            )
        )

    def _message(self, msg_id: int):
        result = self.env.db.query(
            f"SELECT msg_id, forum_id, author, subject, body FROM messages "
            f"WHERE msg_id = {int(msg_id)}"
        )
        if not result.rows:
            raise HTTPError(404, f"no such message: {msg_id}")
        return result.rows[0]

    def _response_for(self, user: Optional[str]) -> HTTPOutputChannel:
        response = self.env.http_channel(user=user)
        if self.use_xss_assertion:
            self.resin.assertion("xss").install(response)
        return response

    # -- message views: one correct path, several buggy ones -----------------------------------

    def view_message(
        self,
        msg_id: int,
        user: Optional[str],
        response: Optional[HTTPOutputChannel] = None,
    ) -> HTTPOutputChannel:
        """The main topic view — permission check present and correct."""
        if response is None:
            response = self._response_for(user)
        message = self._message(msg_id)
        if not self.user_may_read_forum(user, int(message["forum_id"])):
            raise AccessDenied(
                f"user {user!r} may not read forum #{int(message['forum_id'])}"
            )
        response.write("<h2>")
        response.write(html_escape(message["subject"]))
        response.write("</h2>\n<div class='post'>")
        response.write(html_escape(message["body"]))
        response.write("</div>\n")
        return response

    def printable_view(
        self,
        msg_id: int,
        user: Optional[str],
        response: Optional[HTTPOutputChannel] = None,
    ) -> HTTPOutputChannel:
        """Previously-known bug: the printable view forgets the check."""
        if response is None:
            response = self._response_for(user)
        message = self._message(msg_id)
        response.write("<div class='printable'>")
        response.write(html_escape(message["body"]))
        response.write("</div>\n")
        return response

    def reply_form(
        self,
        msg_id: int,
        user: Optional[str],
        response: Optional[HTTPOutputChannel] = None,
    ) -> HTTPOutputChannel:
        """Newly-discovered bug (Section 6.3): users may reply to a message
        they cannot read, and the reply form quotes the original message."""
        if response is None:
            response = self._response_for(user)
        message = self._message(msg_id)
        quoted = concat(
            '[quote="',
            message["author"],
            '"]',
            message["body"],
            "[/quote]\n",
        )
        response.write("<form class='reply'><textarea>")
        response.write(html_escape(quoted))
        response.write("</textarea></form>\n")
        return response

    def rss_feed(
        self,
        user: Optional[str],
        response: Optional[HTTPOutputChannel] = None,
    ) -> HTTPOutputChannel:
        """Plugin bug: the RSS plugin exports recent messages with no
        permission check."""
        if response is None:
            response = self._response_for(user)
        result = self.env.db.query(
            "SELECT msg_id, subject, body FROM messages ORDER BY msg_id DESC "
            "LIMIT 10"
        )
        response.write("<rss>\n")
        for row in result:
            response.write("<item><title>")
            response.write(html_escape(row["subject"]))
            response.write("</title><description>")
            response.write(html_escape(row["body"]))
            response.write("</description></item>\n")
        response.write("</rss>\n")
        return response

    def search_excerpts(
        self,
        needle: str,
        user: Optional[str],
        response: Optional[HTTPOutputChannel] = None,
    ) -> HTTPOutputChannel:
        """Plugin bug: the search plugin shows excerpts of matching messages
        with no permission check."""
        if response is None:
            response = self._response_for(user)
        result = self.env.db.query(
            concat(
                "SELECT msg_id, body FROM messages WHERE body LIKE '%",
                sql_quote(needle),
                "%'",
            )
        )
        response.write("<ul class='results'>\n")
        for row in result:
            excerpt = row["body"][:60]
            response.write("<li>")
            response.write(html_escape(excerpt))
            response.write("</li>\n")
        response.write("</ul>\n")
        return response

    # -- cross-site scripting paths --------------------------------------------------------------

    def profile_page(
        self,
        user: str,
        viewer: Optional[str],
        response: Optional[HTTPOutputChannel] = None,
    ) -> HTTPOutputChannel:
        """XSS bug: the profile page renders the user's signature without
        sanitizing it."""
        if response is None:
            response = self._response_for(viewer)
        result = self.env.db.query(
            concat(
                "SELECT signature FROM signatures WHERE user = '",
                sql_quote(user),
                "'",
            )
        )
        response.write(f"<h2>Profile: {user}</h2>\n<div class='sig'>")
        if result.rows:
            response.write(result.rows[0]["signature"])  # BUG: no escaping
        response.write("</div>\n")
        return response

    def whois_page(
        self,
        hostname: str,
        whois_server: SocketChannel,
        viewer: Optional[str],
        response: Optional[HTTPOutputChannel] = None,
    ) -> HTTPOutputChannel:
        """XSS bug via a surprising path (Section 6.3): the whois response is
        included in HTML without sanitization.  With the assertion, the
        socket read is marked untrusted and the HTML guard blocks it."""
        if response is None:
            response = self._response_for(viewer)
        if self.use_xss_assertion:
            self.resin.assertion("untrusted-input", source="whois").install(
                whois_server
            )
        whois_server.write(to_tainted_str(f"QUERY {hostname}\r\n"))
        record = whois_server.read()
        response.write("<h2>whois ")
        response.write(html_escape(hostname))
        response.write("</h2>\n<pre>")
        response.write(record)  # BUG: no escaping
        response.write("</pre>\n")
        return response

    def post_preview(
        self,
        subject,
        body,
        viewer: Optional[str],
        response: Optional[HTTPOutputChannel] = None,
    ) -> HTTPOutputChannel:
        """XSS bug: the "preview post" page echoes the submitted subject
        without escaping it."""
        if response is None:
            response = self._response_for(viewer)
        response.write("<h2>")
        response.write(subject)  # BUG: no escaping
        response.write("</h2>\n<div class='preview'>")
        response.write(html_escape(body))
        response.write("</div>\n")
        return response

    def highlight_search(
        self,
        needle,
        viewer: Optional[str],
        response: Optional[HTTPOutputChannel] = None,
    ) -> HTTPOutputChannel:
        """XSS bug: the search page echoes the search term into the results
        header without escaping it."""
        if response is None:
            response = self._response_for(viewer)
        response.write("<h3>Results for ")
        response.write(needle)  # BUG: no escaping
        response.write("</h3>\n")
        return response
