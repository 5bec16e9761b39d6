"""MoinMoin — a miniature wiki with per-page ACLs.

Reproduces the MoinMoin evaluation scenario (Sections 2, 5.1, 6):

* pages are stored in the filesystem, one directory per page with one file
  per revision (the layout the write-ACL assertion cares about);
* each page has a read/write ACL, declared in a ``#acl`` header line just
  like real MoinMoin;
* the **read-ACL assertion** (8 lines in the paper, Figure 5) attaches a
  ``PagePolicy`` to the page body right before it is saved; persistent
  policies then keep the assertion working across the file system;
* the **write-ACL assertion** (15 lines) attaches a
  :class:`~repro.security.assertions.WriteAccessFilter` to the page's
  directory and revision files.

Two previously-known read-access bugs are reproduced:

1. the rst ``include`` directive renders another page without checking its
   ACL (CVE-2008-6548);
2. the "raw" download action forgets the ACL check entirely.

Both leak page contents on the unprotected wiki and are blocked by the
single read assertion when RESIN is enabled.
"""

from __future__ import annotations

import re
from typing import Optional

from ..channels.httpout import HTTPOutputChannel
from ..core.exceptions import AccessDenied, HTTPError
from ..environment import Environment
from ..fs import path as fspath
from ..policies.acl import ACL, PagePolicy
from ..runtime_api import Resin
from ..security.assertions import WriteAccessFilter
from ..tracking.propagation import to_tainted_str
from ..web.response import Response

PAGES_ROOT = "/wiki/pages"

#: Service name under which a wiki registers itself on its environment.
WIKI_SERVICE = "moinmoin.wiki"

_INCLUDE_DIRECTIVE = re.compile(r"\{\{include:([A-Za-z0-9_/-]+)\}\}")


class MoinMoin:
    """The wiki engine."""

    def __init__(
        self,
        env: Optional[Environment] = None,
        use_resin: bool = True,
        use_write_assertion: bool = True,
    ):
        self.env = env if env is not None else Environment()
        self.resin = Resin(self.env)
        self.use_resin = use_resin
        self.use_write_assertion = use_write_assertion
        if not self.env.fs.exists(PAGES_ROOT):
            self.env.fs.mkdir(PAGES_ROOT, parents=True)
        self.env.services.register(WIKI_SERVICE, self)
        self.web = self._build_web()

    def _build_web(self):
        """The wiki's routed HTTP front end.

        Page names are ``path`` parameters (they may contain ``/``); the
        more specific ``.../raw`` route is registered first because routes
        match in registration order.  Viewing and editing share one URL
        space, split by HTTP method.
        """
        web = self.resin.app("moinmoin")

        @web.route("/wiki/<path:name>/raw")
        def raw(request, response, name):
            self.raw_action(name, request.user, response=response)

        @web.route("/wiki/<path:name>")
        def view(request, response, name):
            self.view_page(name, request.user, response=response)

        @web.route("/wiki/<path:name>", methods=["POST"])
        def edit(request, response, name):
            revision = self.update_body(name, request.require("text"), request.user)
            return Response(f"saved revision {revision}", status=201)

        return web

    # -- storage layout -----------------------------------------------------------

    def _page_dir(self, name: str) -> str:
        return fspath.join(PAGES_ROOT, name)

    def _revision_path(self, name: str, revision: int) -> str:
        return fspath.join(self._page_dir(name), f"{revision:08d}")

    def _latest_revision(self, name: str) -> int:
        page_dir = self._page_dir(name)
        if not self.env.fs.isdir(page_dir):
            return 0
        revisions = [
            int(entry) for entry in self.env.fs.listdir(page_dir) if entry.isdigit()
        ]
        return max(revisions) if revisions else 0

    def page_exists(self, name: str) -> bool:
        return self._latest_revision(name) > 0

    # -- ACLs ------------------------------------------------------------------------------

    @staticmethod
    def parse_acl(text: str) -> ACL:
        """The page ACL is declared on a ``#acl`` header line, e.g.
        ``#acl alice:read,write Known:read``.  Pages without an ACL are
        world-readable and writable by any known user."""
        for line in str(text).splitlines():
            if line.startswith("#acl "):
                _, _, spec = line.partition("#acl ")
                return ACL.parse(spec)
        return ACL({"All": ("read",), "Known": ("read", "write")})

    def get_acl(self, name: str) -> ACL:
        if not self.page_exists(name):
            return ACL({"Known": ("read", "write"), "All": ("read",)})
        latest = self._revision_path(name, self._latest_revision(name))
        return self.parse_acl(str(self.env.fs.read_text(latest)))

    def may(self, user: Optional[str], name: str, right: str) -> bool:
        return self.get_acl(name).may(user, right)

    # -- editing --------------------------------------------------------------------------------

    def update_body(self, name: str, text: str, user: Optional[str]) -> int:
        """Save a new revision of ``name`` (the ``update_body`` of Figure 5).

        MoinMoin's own write check runs here; with RESIN the page body is
        additionally annotated with a ``PagePolicy`` carrying the page's read
        ACL, and (with the write assertion) the page directory gets a
        persistent ``WriteAccessFilter``.

        Revision allocation and the write happen inside one
        ``fs.transaction`` on the page directory, so two concurrent editors
        can never claim the same revision number.
        """
        if self.page_exists(name) and not self.may(user, name, "write"):
            raise AccessDenied(f"user {user!r} may not edit page {name!r}")
        text = to_tainted_str(text)
        acl = self.parse_acl(text)
        if self.use_resin:
            # The 8-line read assertion: attach the page's ACL to its data.
            text = self.resin.taint(text, PagePolicy(acl, name))
        page_dir = self._page_dir(name)
        if not self.env.fs.exists(page_dir):
            self.env.fs.mkdir(page_dir, parents=True)
        with self.env.fs.acting_as(user), self.env.fs.transaction(page_dir):
            revision = self._latest_revision(name) + 1
            self.env.fs.write_text(self._revision_path(name, revision), text)
        if self.use_write_assertion:
            self._install_write_assertion(name, acl)
        return revision

    def _install_write_assertion(self, name: str, acl: ACL) -> None:
        """The 15-line write assertion: guard the page directory and every
        revision file with a write-ACL filter."""
        write_filter = WriteAccessFilter(acl=acl, right="write")
        page_dir = self._page_dir(name)
        self.env.fs.set_persistent_filter(page_dir, write_filter)
        for entry in self.env.fs.listdir(page_dir):
            self.env.fs.set_persistent_filter(
                fspath.join(page_dir, entry), write_filter
            )

    # -- reading ----------------------------------------------------------------------------------

    def _load_body(self, name: str):
        latest = self._latest_revision(name)
        if latest == 0:
            raise HTTPError(404, f"no such page: {name}")
        return self.env.fs.read_text(self._revision_path(name, latest))

    def _response_for(self, user: Optional[str]) -> HTTPOutputChannel:
        response = self.env.http_channel(user=user)
        return response

    def view_page(
        self,
        name: str,
        user: Optional[str],
        response: Optional[HTTPOutputChannel] = None,
    ) -> HTTPOutputChannel:
        """The normal page view: MoinMoin's own ACL check plus rendering."""
        if response is None:
            response = self._response_for(user)
        if not self.may(user, name, "read"):
            raise AccessDenied(f"user {user!r} may not read page {name!r}")
        body = self._load_body(name)
        response.write(f"<h1>{name}</h1>\n")
        response.write(self._render(body, user))
        return response

    def raw_action(
        self,
        name: str,
        user: Optional[str],
        response: Optional[HTTPOutputChannel] = None,
    ) -> HTTPOutputChannel:
        """The *buggy* raw-download action: it forgets the ACL check.

        On the unprotected wiki this leaks any page; with the read assertion
        the PagePolicy stored with the page data trips at the HTTP boundary.
        """
        if response is None:
            response = self._response_for(user)
        body = self._load_body(name)
        response.write(body)
        return response

    def _render(self, body, viewing_user: Optional[str]):
        """Render wiki markup.  The ``{{include:Page}}`` directive is the
        CVE-2008-6548 bug: the included page's ACL is *not* checked."""
        rendered = to_tainted_str("")
        cursor = 0
        text = str(body)
        for match in _INCLUDE_DIRECTIVE.finditer(text):
            start = match.start()
            rendered = rendered + body[cursor:start]
            included_name = match.group(1)
            if self.page_exists(included_name):
                # BUG (reproduced): no ACL check on the included page.
                rendered = rendered + self._load_body(included_name)
            cursor = match.end()
        rendered = rendered + body[cursor:]
        return rendered

    # -- maintenance used by attack scenarios -------------------------------------------------------

    def overwrite_revision(
        self, name: str, revision: int, text: str, user: Optional[str]
    ) -> None:
        """Directly overwrite an existing revision file (the code path the
        write-ACL assertion protects: without it, any code path that writes
        into the page directory bypasses the ACL)."""
        with self.env.fs.acting_as(user):
            self.env.fs.write_text(
                self._revision_path(name, revision), to_tainted_str(text)
            )
