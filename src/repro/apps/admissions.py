"""MIT EECS graduate admissions — a miniature review system.

The paper evaluates a generic SQL-injection assertion on MIT's internal
graduate-admissions application (18,500 lines of Python): the original
programmers sanitized most inputs, but the assertion revealed three
previously-unknown SQL injection vulnerabilities in the admission
committee's *internal* user interface.

This miniature version reproduces that shape: the public-facing search is
properly quoted, while three internal committee screens interpolate request
parameters into SQL without quoting.  The RESIN assertion (9 lines in the
paper) marks request input untrusted and stacks a
:class:`~repro.security.assertions.SQLGuardFilter` on the database
connection; it blocks all three injections without knowing where they are.
"""

from __future__ import annotations

from typing import List, Optional

from ..environment import Environment
from ..policies.untrusted import UntrustedData
from ..runtime_api import Resin
from ..tracking.propagation import concat, to_tainted_str
from ..tracking.tainted_str import TaintedStr
from ..web.response import Response
from ..web.routing import UntrustedInputMiddleware
from ..web.sanitize import sql_quote


class AdmissionsSystem:
    """The admissions review application."""

    def __init__(self, env: Optional[Environment] = None, use_resin: bool = True):
        self.env = env if env is not None else Environment()
        self.resin = Resin(self.env)
        self.use_resin = use_resin
        self._setup_schema()
        if use_resin:
            self.install_assertion()
        self.web = self._build_web()

    def _build_web(self):
        """The committee's routed HTTP front end.

        The public search and the three internal screens become routes; the
        untrusted-input middleware is the mark-the-inputs half of the
        assertion at the web boundary (the screens also taint defensively
        for direct calls).  Note the typed ``<int:...>`` parameter on the
        lookup route: URL *path* segments are converted — and therefore
        structurally safe — while the raw query parameters remain the
        injection surface the assertion guards.
        """
        web = self.resin.app("admissions")
        if self.use_resin:
            web.middleware(UntrustedInputMiddleware())

        def rows_response(rows) -> Response:
            lines = (
                TaintedStr(", ").join(
                    concat(key, "=", row[key]) for key in row.keys()
                )
                for row in rows
            )
            return Response(TaintedStr("\n").join(lines))

        @web.route("/applicants")
        def search(request, response):
            return rows_response(self.search_by_name(request.require("name")))

        @web.route("/applicants/by-area")
        def by_area(request, response):
            return rows_response(self.filter_by_area(request.require("area")))

        @web.route("/applicants/<int:applicant_id>")
        def lookup(request, response, applicant_id):
            return rows_response(self.lookup_applicant(str(applicant_id)))

        @web.route("/applicants/<int:applicant_id>/decision", methods=["POST"])
        def decide(request, response, applicant_id):
            changed = self.update_decision(applicant_id, request.require("decision"))
            return Response(f"updated {changed} rows")

        return web

    def install_assertion(self) -> None:
        """The 9-line SQL-injection assertion: every query issued by the
        application flows through a structure-checking SQL guard."""
        self.resin.assertion("sql-injection", strategy="structure").install()

    def _setup_schema(self) -> None:
        self.env.db.execute_unchecked(
            "CREATE TABLE IF NOT EXISTS applicants "
            "(applicant_id INTEGER, name TEXT, area TEXT, gre INTEGER, "
            "decision TEXT, notes TEXT)"
        )

    # -- data entry ---------------------------------------------------------------------

    def add_applicant(
        self,
        applicant_id: int,
        name: str,
        area: str,
        gre: int,
        decision: str = "pending",
        notes: str = "",
    ) -> None:
        self.env.db.query(
            concat(
                "INSERT INTO applicants (applicant_id, name, area, gre, decision, "
                "notes) VALUES (",
                str(int(applicant_id)),
                ", '",
                sql_quote(name),
                "', '",
                sql_quote(area),
                "', ",
                str(int(gre)),
                ", '",
                sql_quote(decision),
                "', '",
                sql_quote(notes),
                "')",
            )
        )

    def _taint(self, value):
        """Request parameters reach the handlers as untrusted data when the
        assertion is enabled (the mark-inputs half of the assertion)."""
        value = to_tainted_str(value)
        if not self.use_resin:
            return value
        return self.resin.taint(value, UntrustedData("http-param"))

    # -- the public, correctly-written screen ----------------------------------------------

    def search_by_name(self, name) -> List:
        """Public search screen: input is properly quoted."""
        name = self._taint(name)
        result = self.env.db.query(
            concat(
                "SELECT applicant_id, name, area FROM applicants WHERE name = '",
                sql_quote(name),
                "'",
            )
        )
        return list(result.rows)

    # -- the three vulnerable internal committee screens -------------------------------------

    def filter_by_area(self, area) -> List:
        """Internal screen #1 — the area filter is interpolated raw."""
        area = self._taint(area)
        result = self.env.db.query(
            concat(
                "SELECT applicant_id, name, gre FROM applicants WHERE area = '",
                area,  # BUG: no quoting
                "'",
            )
        )
        return list(result.rows)

    def lookup_applicant(self, applicant_id) -> List:
        """Internal screen #2 — the applicant id is interpolated into a
        numeric context with no quoting at all."""
        applicant_id = self._taint(applicant_id)
        result = self.env.db.query(
            concat(
                "SELECT applicant_id, name, notes FROM applicants "
                "WHERE applicant_id = ",
                applicant_id,  # BUG: no quoting
            )
        )
        return list(result.rows)

    def update_decision(self, applicant_id, decision) -> int:
        """Internal screen #3 — the decision text is interpolated raw."""
        decision = self._taint(decision)
        result = self.env.db.query(
            concat(
                "UPDATE applicants SET decision = '",
                decision,  # BUG: no quoting
                "' WHERE applicant_id = ",
                str(int(applicant_id)),
            )
        )
        return result.rowcount

    # -- helpers used by the harness ----------------------------------------------------------

    def decisions(self) -> List:
        return list(
            self.env.db.query("SELECT applicant_id, decision FROM applicants").rows
        )
