"""File Thingie and PHP Navigator — miniature web file managers.

Both applications let each user manage files under a personal home
directory.  Both contain their own (incomplete) checks on user-supplied file
names, and both have a *newly-discovered* directory traversal bug
(Section 6.2): a crafted ``..`` path escapes the home directory on the write
path, letting an adversary overwrite another user's files or application
configuration.

The RESIN assertion (19 and 17 lines in the paper) is a write-access filter
(Data Flow Assertion 2): a persistent :class:`WriteAccessFilter` on the data
root only allows a write when the target path lies inside the authenticated
user's home directory.  The assertion reuses the applications' notion of a
home directory, and catches the traversal no matter which code path produced
the bad file name.
"""

from __future__ import annotations

from typing import Optional

from ..core.exceptions import HTTPError
from ..environment import Environment
from ..fs import path as fspath
from ..runtime_api import Resin
from ..security.assertions import WriteAccessFilter
from ..tracking.propagation import to_tainted_str
from ..web.response import Response
from ..web.routing import SessionMiddleware


class BaseFileManager:
    """Shared plumbing of the two file managers."""

    #: Root directory holding every user's home directory.
    DATA_ROOT = "/srv/files"

    #: Name of the application (used in the data-root path).
    name = "filemanager"

    def __init__(self, env: Optional[Environment] = None, use_resin: bool = True):
        self.env = env if env is not None else Environment()
        self.resin = Resin(self.env)
        self.use_resin = use_resin
        self.data_root = fspath.join(self.DATA_ROOT, self.name)
        if not self.resin.fs.exists(self.data_root):
            self.resin.fs.mkdir(self.data_root, parents=True)
        if use_resin:
            self._install_write_assertion()
        self.web = self._build_web()

    def _build_web(self):
        """The manager's routed HTTP front end.

        Authentication is cookie-based: ``POST /login`` creates a session,
        and the stock :class:`~repro.web.routing.SessionMiddleware` resolves
        it back into ``request.user`` on later requests.  File names are
        ``path`` parameters, so the traversal payloads of Section 6.2 are
        expressible through the web surface — and still caught by the
        write-access assertion underneath.
        """
        web = self.resin.app(self.name)
        web.middleware(SessionMiddleware())

        def require_user(request) -> str:
            if request.user is None:
                raise HTTPError(401, "login required")
            return str(request.user)

        @web.route("/login", methods=["POST"])
        def login(request, response):
            user = str(request.require("user"))
            self.create_account(user)
            session = self.env.sessions.create(user=user)
            return Response(session.sid, status=201)

        @web.route("/files")
        def index(request, response):
            names = self.list_files(require_user(request))
            return Response("\n".join(str(name) for name in names))

        @web.route("/files/<path:filename>")
        def read(request, response, filename):
            response.write(self.read_file(require_user(request), filename))

        @web.route("/files/<path:filename>", methods=["POST", "PUT"])
        def save(request, response, filename):
            target = self.save_file(
                require_user(request), filename, request.require("content")
            )
            return Response(f"stored {target}", status=201)

        return web

    # -- the RESIN assertion ----------------------------------------------------------

    def _install_write_assertion(self) -> None:
        """The write-access assertion: any write below the data root must
        stay inside the current user's home directory."""

        def allowed(user: Optional[str], operation: str, path: str) -> bool:
            if user is None:
                return False
            return fspath.is_inside(path, self.home_dir(user))

        self.resin.fs.set_persistent_filter(
            self.data_root, WriteAccessFilter(allowed=allowed)
        )

    # -- application logic ---------------------------------------------------------------

    def home_dir(self, user: str) -> str:
        return fspath.join(self.data_root, user)

    def create_account(self, user: str) -> None:
        home = self.home_dir(user)
        if not self.env.fs.exists(home):
            with self.env.fs.acting_as(user):
                self.env.fs.mkdir(home, parents=True)

    def _resolve(self, user: str, filename: str) -> str:
        """Resolve a user-supplied file name — subclasses implement the
        application's own (buggy) confinement check here."""
        raise NotImplementedError

    def save_file(self, user: str, filename: str, content) -> str:
        """Write a file on behalf of ``user``; returns the resolved path."""
        target = self._resolve(user, filename)
        with self.env.fs.acting_as(user):
            parent = fspath.dirname(target)
            if not self.env.fs.exists(parent):
                self.env.fs.mkdir(parent, parents=True)
            self.env.fs.write_text(target, to_tainted_str(content))
        return target

    def read_file(self, user: str, filename: str):
        target = self._resolve(user, filename)
        if not self.env.fs.isfile(target):
            raise HTTPError(404, f"no such file: {filename}")
        return self.env.fs.read_text(target)

    def list_files(self, user: str):
        home = self.home_dir(user)
        if not self.env.fs.isdir(home):
            return []
        return self.env.fs.listdir(home)


class FileThingie(BaseFileManager):
    """File Thingie's confinement check rejects absolute paths and file names
    containing a slash — but the *rename/upload* path first strips a leading
    directory component, which re-opens the door to ``..`` sequences."""

    name = "filethingie"

    def _resolve(self, user: str, filename: str) -> str:
        filename = str(filename)
        if filename.startswith("/"):
            raise HTTPError(400, "absolute paths are not allowed")
        # BUG: the check only looks at the *first* path component; a name
        # like "docs/../../victim/notes.txt" sails through.
        first_component = filename.split("/", 1)[0]
        if first_component == "..":
            raise HTTPError(400, "invalid file name")
        return fspath.join(self.home_dir(user), filename)


class PHPNavigator(BaseFileManager):
    """PHP Navigator strips ``../`` prefixes from the supplied name — but
    only non-recursively, so ``....//`` collapses back into ``../`` after one
    pass (a classic filter-evasion bug)."""

    name = "phpnavigator"

    def _resolve(self, user: str, filename: str) -> str:
        filename = str(filename)
        if filename.startswith("/"):
            raise HTTPError(400, "absolute paths are not allowed")
        # BUG: single-pass removal of "../" can be defeated by "....//".
        sanitized = filename.replace("../", "")
        return fspath.join(self.home_dir(user), sanitized)
