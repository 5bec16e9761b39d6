"""End-to-end provenance: which requests exported this password's data?

The acceptance scenario: a multi-request workload where some requests
export data carrying a ``PasswordPolicy`` and others don't;
``provenance_of(password_policy)`` must return exactly the exporting
requests — including after the ledger is closed and reopened, and through
``Resin.open``'s recovered recorder.
"""

import pytest

from repro.audit.ledger import AuditLedger
from repro.audit.query import events as query_events
from repro.audit.query import provenance_of
from repro.core.exceptions import DisclosureViolation
from repro.policies import PasswordPolicy, UntrustedData
from repro.runtime_api import Resin
from repro.server.dispatcher import Dispatcher
from repro.web import WebApplication
from repro.web.request import Request


def _build_app(resin):
    app = WebApplication(resin.env)
    site = {"password": resin.taint("hunter2", PasswordPolicy("a@b.c"))}

    @app.route("/profile")
    def profile(request, response):
        # Exports the password — allowed only for the program chair.
        response.write("password: " + site["password"])

    @app.route("/public")
    def public(request, response):
        response.write("nothing secret here")

    @app.route("/comment")
    def comment(request, response):
        # Exports *other* tainted data: must not pollute the password chain.
        response.write(resin.taint("<i>hi</i>", UntrustedData("form")))

    return app


class TestProvenanceChain:
    def test_dispatched_attempts_are_attributed_by_request_id(self, tmp_path):
        """Requests served through the thread-pool dispatcher: every
        /profile hit tries to export the password (denied — a bare web
        Request carries no priv_chair), /public and /comment never touch
        it.  The audit trail attributes each decision to its request id."""
        resin = Resin()
        recorder = resin.enable_audit(str(tmp_path / "audit"))
        app = _build_app(resin)
        plan = [
            ("/profile", "chair"),    # request 1: denied attempt
            ("/profile", "mallory"),  # request 2: denied attempt
            ("/public", "alice"),     # request 3: no policies
            ("/profile", "chair"),    # request 4: denied attempt
            ("/comment", "bob"),      # request 5: other taint, allowed
            ("/public", "carol"),     # request 6: no policies
        ]
        with Dispatcher(app, workers=1) as server:
            for path, user in plan:
                try:
                    server.dispatch(Request(path, user=user))
                except DisclosureViolation:
                    pass
        denied = list(recorder.events(policy=PasswordPolicy, verdict="deny"))
        assert {event["request"] for event in denied} == {1, 2, 4}
        # ``route`` is the matched route's *name* — stable across
        # parameterized paths, unlike the raw request path.
        assert all(event["route"] == "profile" for event in denied)
        # No successful password export → empty chain; the comment export
        # shows up only under its own policy.
        assert provenance_of(recorder.ledger, PasswordPolicy) == []
        chain = provenance_of(recorder.ledger, UntrustedData)
        assert [entry["request"] for entry in chain] == [5]
        recorder.close()

    def test_chain_includes_only_exporting_requests(self, tmp_path):
        resin = Resin()
        recorder = resin.enable_audit(str(tmp_path / "audit"))
        password = resin.taint("hunter2", PasswordPolicy("a@b.c"))
        untrusted = resin.taint("<i>hi</i>", UntrustedData("form"))

        expected_exporters = []
        for user, chair, payload in [
            ("chair", True, password),    # request 1: exports the password
            ("alice", False, "plain"),    # request 2: nothing tainted
            ("bob", False, untrusted),    # request 3: other policy
            ("chair", True, password),    # request 4: exports the password
            ("mallory", False, password),  # request 5: denied attempt
        ]:
            try:
                with resin.request(user=user, priv_chair=chair) as http:
                    http.write(payload)
                if payload is password:
                    expected_exporters.append(user)
            except DisclosureViolation:
                pass

        chain = recorder.provenance_of(PasswordPolicy("a@b.c"))
        assert [entry["request"] for entry in chain] == [1, 4]
        assert [entry["principal"] for entry in chain] == expected_exporters
        assert all(entry["events"] == 1 for entry in chain)

        # ... and the chain survives a close/reopen of the ledger.
        recorder.close()
        with AuditLedger(str(tmp_path / "audit")) as reopened:
            chain_after = provenance_of(reopened, PasswordPolicy("a@b.c"))
            assert [e["request"] for e in chain_after] == [1, 4]
            denies = list(query_events(reopened, policy=PasswordPolicy,
                                       verdict="deny"))
            assert [e["request"] for e in denies] == [5]


class TestResinOpenWiring:
    def test_open_recovers_recorder_and_chain(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store, sync="none", audit=True)
        assert resin.audit is not None
        password = resin.taint("hunter2", PasswordPolicy("a@b.c"))
        with resin.request(user="chair", priv_chair=True) as http:
            http.write(password)
        resin.audit.close()
        resin.durability.close()

        # Reopen: audit=None must auto-detect the existing ledger, resume
        # the sequence, and expose the recovered chain through resin.audit.
        reopened = Resin.open(store, sync="none")
        recorder = reopened.audit
        assert recorder is not None
        chain = recorder.provenance_of(PasswordPolicy("a@b.c"))
        assert [entry["request"] for entry in chain] == [1]
        first_seq = max(e["seq"] for e in recorder.events())

        # New decisions keep appending after the recovered prefix.
        password2 = reopened.taint("hunter2", PasswordPolicy("a@b.c"))
        with pytest.raises(DisclosureViolation):
            with reopened.request(user="eve") as http:
                http.write(password2)
        denied = list(recorder.events(verdict="deny"))
        assert denied and all(e["seq"] > first_seq for e in denied)
        recorder.close()
        reopened.durability.close()

    def test_open_without_audit_dir_stays_off(self, tmp_path):
        resin = Resin.open(str(tmp_path / "plain"), sync="none")
        assert resin.audit is None
        resin.durability.close()

    def test_open_audit_false_ignores_existing_ledger(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store, sync="none", audit=True)
        resin.audit.close()
        resin.durability.close()
        reopened = Resin.open(store, sync="none", audit=False)
        assert reopened.audit is None
        reopened.durability.close()
