"""Upload-enabled applications vulnerable to server-side script injection.

The paper applies a *single* 12-line assertion to five different PHP
applications with known upload-then-execute vulnerabilities (phpBB's
attachment mod, Kwalbum, AWStats Totals, phpMyAdmin and wPortfolio,
references [3, 11, 16, 23, 36]).  Each lets a user upload a file into a
web-accessible directory; requesting the uploaded ``.php`` file makes the
server execute it.

``UploadApp`` models that shape once; five named instances reproduce the
five applications.  The assertion (Section 5.2, Figure 6) is:

1. replace the interpreter's default input filter with
   :class:`~repro.interp.filters.InterpreterFilter`;
2. at install time, tag the application's own scripts with a persistent
   ``CodeApproval`` policy (``approve_code_file``).

Uploaded files never get the policy, so the interpreter refuses to run them
— whether they are reached by include, eval, or a direct HTTP request.
"""

from __future__ import annotations

from typing import List, Optional

from ..environment import Environment
from ..fs import path as fspath
from ..runtime_api import Resin
from ..tracking.propagation import to_tainted_str
from ..web.app import WebApplication
from ..web.request import Request
from ..web.response import Response

#: The five applications of Table 4's "many" row and their CVE identifiers.
VULNERABLE_APPS = (
    ("phpbb-attachment-mod", "CVE-2004-1404"),
    ("kwalbum", "CVE-2008-5677"),
    ("awstats-totals", "CVE-2008-3922"),
    ("phpmyadmin", "CVE-2008-4096"),
    ("wportfolio", "CVE-2008-5220"),
)


class UploadApp:
    """One web application that accepts file uploads into its docroot."""

    def __init__(
        self,
        name: str,
        env: Optional[Environment] = None,
        use_resin: bool = True,
        cve: str = "",
    ):
        self.name = name
        self.cve = cve
        self.env = env if env is not None else Environment()
        self.resin = Resin(self.env)
        self.use_resin = use_resin
        self.docroot = f"/www/{name}"
        self.upload_dir = fspath.join(self.docroot, "uploads")
        self.web = WebApplication(self.env, name=name)
        self.web.add_static_mount(f"/{name}", self.docroot)

        @self.web.route(f"/{name}/upload", methods=["POST"])
        def upload_route(request, response):
            target = self.upload(
                request.user,
                str(request.require("filename")),
                request.require("content"),
            )
            return Response(f"stored {target}", status=201)

        self._install()

    def _install(self) -> None:
        """Install the application: write its own scripts into the docroot
        and, with RESIN, apply the script-injection assertion.

        The assertion is installed on *this application's* environment only
        (its registry), so several applications — protected or not — can run
        concurrently in one process without interfering.
        """
        self.env.fs.mkdir(self.upload_dir, parents=True)
        index = fspath.join(self.docroot, "index.php")
        self.env.fs.write_text(index, "output('<h1>%s</h1>')\n" % self.name)
        if self.use_resin:
            self.resin.assertion("script-injection").install()
            self.resin.approve_code(index)

    # -- the vulnerable feature ------------------------------------------------------

    def upload(self, user: str, filename: str, content) -> str:
        """Accept a user upload.  The application intends this for images and
        attachments but does not restrict the file extension (the bug)."""
        target = fspath.join(self.upload_dir, fspath.basename(filename))
        with self.env.fs.acting_as(user):
            self.env.fs.write_text(target, to_tainted_str(content))
        return target

    def http_get(self, path: str, user: Optional[str] = None):
        """Serve a request; ``.php`` files under the docroot are executed by
        the interpreter (that is how the exploit triggers)."""
        return self.web.handle(Request(path, user=user))

    def run_index(self) -> None:
        """Run the application's own (approved) front page script."""
        self.env.interpreter.execute_file(
            fspath.join(self.docroot, "index.php"), response=self.env.http_channel()
        )


def build_all(use_resin: bool = True) -> List[UploadApp]:
    """Instantiate the five vulnerable applications (each with its own
    environment, as in the evaluation)."""
    return [
        UploadApp(name, Environment(), use_resin=use_resin, cve=cve)
        for name, cve in VULNERABLE_APPS
    ]
