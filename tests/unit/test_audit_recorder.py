"""Audit recorder: capture semantics, backpressure, query API, hooks.

The invariants under test are the ones the instrumentation relies on:
recording never raises into (or changes the verdict of) the instrumented
boundary, queue pressure drops the *oldest* pending event and counts it,
and events carry the request id / principal / route / channel / policy
blob / provenance chain the ledger schema promises.
"""

import warnings

import pytest

from repro.audit.ledger import MemoryLedger
from repro.audit.recorder import AuditRecorder, default_audit, recorder_for
from repro.core.exceptions import DisclosureViolation, ResinWarning
from repro.policies import PasswordPolicy, UntrustedData
from repro.runtime_api import Resin


@pytest.fixture
def resin():
    return Resin()


@pytest.fixture
def recorder(resin):
    recorder = resin.enable_audit()
    yield recorder
    recorder.close()


def _one(events):
    events = list(events)
    assert len(events) == 1, events
    return events[0]


class TestExportEvents:
    def test_denied_export_records_full_attribution(self, resin, recorder):
        pw = resin.taint("s3cret", PasswordPolicy("a@b.c"))
        with pytest.raises(DisclosureViolation):
            with resin.request(user="alice") as http:
                http.write("password: " + pw)
        event = _one(recorder.events(kind="export"))
        assert event["verdict"] == "deny"
        assert event["channel"] == "http"
        assert event["principal"] == "alice"
        assert event["request"] == 1
        assert event["violation"]["type"] == "DisclosureViolation"
        assert event["policies"][0]["class"].endswith("PasswordPolicy")
        assert event["policies"][0]["fields"]["email"] == "a@b.c"
        # Provenance: the tainted segment's offsets within the exported data.
        [[start, stop, refs]] = event["provenance"]
        assert (start, stop) == (len("password: "), len("password: s3cret"))
        assert refs == [0]

    def test_allowed_export_records_allow(self, resin, recorder):
        pw = resin.taint("s3cret", PasswordPolicy("a@b.c"))
        with resin.request(user="chair", priv_chair=True) as http:
            http.write(pw)
        event = _one(recorder.events(kind="export"))
        assert event["verdict"] == "allow"
        assert event["request"] == 1

    def test_untainted_writes_record_nothing(self, resin, recorder):
        with resin.request(user="alice") as http:
            http.write("plain text, no policies")
        assert list(recorder.events()) == []

    def test_declassify_is_recorded(self, resin, recorder):
        pw = resin.taint("s3cret", PasswordPolicy("a@b.c"))
        with resin.request(user="admin"):
            plain = resin.declassify(pw)
        assert plain == "s3cret"
        event = _one(recorder.events(kind="declassify"))
        assert event["principal"] == "admin"
        assert event["policies"][0]["class"].endswith("PasswordPolicy")

    def test_verdict_identical_with_and_without_recorder(self, resin):
        """Recording never changes a verdict: the same write sequence
        allows/denies identically with audit on and off."""

        def run(r):
            outcomes = []
            pw = r.taint("s3cret", PasswordPolicy("a@b.c"))
            for user, chair in [("alice", False), ("chair", True)]:
                try:
                    with r.request(user=user, priv_chair=chair) as http:
                        http.write(pw)
                    outcomes.append("allow")
                except DisclosureViolation:
                    outcomes.append("deny")
            return outcomes

        silent = run(Resin())
        audited_resin = Resin()
        audited_resin.enable_audit()
        try:
            assert run(audited_resin) == silent == ["deny", "allow"]
        finally:
            audited_resin.audit.close()


class TestBackpressureAndSafety:
    def test_queue_pressure_drops_oldest_and_counts(self):
        recorder = AuditRecorder(MemoryLedger(), queue_limit=4)
        # Freeze the writer so the queue genuinely fills.
        with recorder._cond:
            for n in range(10):
                if len(recorder._queue) >= recorder.queue_limit:
                    del recorder._queue[0]
                    recorder.dropped_events += 1
                recorder._queue.append({"ts": 0.0, "kind": "export", "n": n})
        recorder.flush()
        assert recorder.dropped_events == 6
        survivors = [e["n"] for e in recorder.ledger.iter_events()]
        assert survivors == [6, 7, 8, 9]
        recorder.close()

    def test_record_never_raises(self):
        class ExplodingLedger(MemoryLedger):
            def append(self, event):
                raise RuntimeError("disk on fire")

        recorder = AuditRecorder(ExplodingLedger())
        recorder.record("export", verdict="allow")
        recorder.flush()
        assert recorder.record_errors >= 1
        assert recorder.events_recorded == 0
        recorder.close()

    def test_unserializable_policy_falls_back_to_repr(self):
        class Weird:  # not a Policy at all
            def __repr__(self):
                return "<weird>"

        recorder = AuditRecorder(MemoryLedger())
        recorder.record("export", verdict="allow", policies=[Weird()])
        recorder.flush()
        [event] = recorder.ledger.iter_events()
        assert event["policies"][0]["class"] == "Weird"
        recorder.close()

    def test_close_drains_pending_events(self):
        recorder = AuditRecorder(MemoryLedger())
        for n in range(50):
            recorder.record("export", verdict="allow", detail={"n": n})
        recorder.close()
        assert recorder.events_recorded == 50


class TestServiceWiring:
    def test_recorder_for_prefers_env_service(self, resin, recorder):
        assert recorder_for(resin.env) is recorder
        assert resin.audit is recorder

    def test_recorder_for_none_without_audit(self):
        assert recorder_for(Resin().env) is None

    def test_default_audit_hook_scopes_and_restores(self, resin):
        other = Resin()
        recorder = AuditRecorder(MemoryLedger())
        assert recorder_for(other.env) is None
        with default_audit(recorder):
            assert recorder_for(other.env) is recorder
            # An env-registered recorder still wins over the default.
            own = resin.enable_audit()
            assert recorder_for(resin.env) is own
            own.close()
        assert recorder_for(other.env) is None
        recorder.close()

    def test_enable_audit_is_idempotent(self, resin):
        first = resin.enable_audit()
        assert resin.enable_audit() is first
        first.close()

    def test_close_detaches_service(self, resin):
        recorder = resin.enable_audit()
        recorder.close()
        assert resin.audit is None


class TestQueryFilters:
    def test_filters_compose(self, resin, recorder):
        pw_a = resin.taint("pw-a", PasswordPolicy("a@b.c"))
        untrusted = resin.taint("<x>", UntrustedData("form"))
        with resin.request(user="chair", priv_chair=True) as http:
            http.write(pw_a)
        with resin.request(user="bob") as http:
            http.write(untrusted)
        assert _one(recorder.events(policy=PasswordPolicy))["request"] == 1
        assert _one(recorder.events(principal="bob"))["request"] == 2
        assert _one(recorder.events(request=2))["principal"] == "bob"
        assert list(recorder.events(policy=PasswordPolicy("z@z.z"))) == []
        assert len(list(recorder.events(kind="export"))) == 2
        later = _one(recorder.events(policy="UntrustedData"))
        assert list(recorder.events(since=later["ts"])) == [later]


class TestFormatPolicyDrop:
    def test_format_of_tainted_str_warns_and_records(self, resin, recorder):
        pw = resin.taint("s3cret", PasswordPolicy("a@b.c"))
        with resin.request(user="dev"):
            with pytest.warns(ResinWarning):
                text = f"value={pw}"
        assert text == "value=s3cret"
        event = _one(recorder.events(kind="policy_dropped"))
        assert event["principal"] == "dev"
        assert event["policies"][0]["class"].endswith("PasswordPolicy")
        assert event["detail"]["op"] == "format"

    def test_untainted_format_is_silent(self, resin, recorder):
        from repro.tracking import TaintedStr

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f"{TaintedStr('plain')}" == "plain"
        assert list(recorder.events(kind="policy_dropped")) == []

    def test_interpolation_helpers_do_not_warn(self, resin, recorder):
        """TaintedStr.format() re-applies policies to the result — nothing
        is dropped there, so the loud path must stay quiet."""
        pw = resin.taint("s3cret", PasswordPolicy("a@b.c"))
        from repro.tracking import TaintedStr

        template = TaintedStr("value={}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = template.format(pw)
        assert result.policies()
        assert list(recorder.events(kind="policy_dropped")) == []


class TestRequestIdStamping:
    def test_request_scope_ids_are_monotonic_per_env(self, resin):
        ids = []
        for _ in range(3):
            with resin.request(user="u"):
                from repro.core.request_context import current_request

                ids.append(current_request().request_id)
        assert ids == [1, 2, 3]

    def test_dispatcher_stamps_request_and_log_line(self, resin):
        from repro.server.dispatcher import Dispatcher
        from repro.web import RequestLogMiddleware, WebApplication
        from repro.web.request import Request

        app = WebApplication(resin.env)
        log = RequestLogMiddleware()
        app.middleware(log)

        @app.route("/whoami")
        def whoami(request, response):
            response.write(f"id={request.id}")

        requests = [Request("/whoami", user=f"u{i}") for i in range(4)]
        with Dispatcher(app, workers=4) as server:
            results = server.dispatch_all(requests)
        bodies = sorted(channel.body() for channel in results)
        assert bodies == [f"id={i}" for i in range(1, 5)]
        assert sorted(entry[0] for entry in log.entries) == [1, 2, 3, 4]
        assert all(entry[1:3] == ("GET", "/whoami") for entry in log.entries)
