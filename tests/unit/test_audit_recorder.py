"""Audit recorder: capture semantics, backpressure, query API, hooks.

The invariants under test are the ones the instrumentation relies on:
recording never raises into (or changes the verdict of) the instrumented
boundary, queue pressure drops the *oldest* pending event and counts it,
and events carry the request id / principal / route / channel / policy
blob / provenance chain the ledger schema promises.
"""

import json
import warnings

import pytest

from repro.audit import recorder as recorder_module
from repro.audit.ledger import AuditLedger, MemoryLedger
from repro.audit.recorder import AuditRecorder, recorder_for
from repro.core import Filter, check_export
from repro.core.exceptions import DisclosureViolation, ResinWarning
from repro.core.policy import Policy
from repro.core.serialization import serialize_policy
from repro.policies import (
    HTMLSanitized,
    PasswordPolicy,
    SQLSanitized,
    UntrustedData,
)
from repro.runtime_api import Resin
from repro.tracking import concat, taint_str
from repro.web.sanitize import html_escape, sql_quote


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


def _exports():
    """``(policies, rangemap)`` of a few mixed-policy values: escaped
    untrusted text beside a password, and a quoted SQL literal."""
    pw = taint_str("s3cret", PasswordPolicy("a@b.c"))
    comment = html_escape(taint_str("<b>hi</b> & bye", UntrustedData("form")))
    quoted = sql_quote(taint_str("o'brien", UntrustedData("form")))
    values = [
        concat("<p>", comment, "</p><p>", pw, "</p>"),
        concat("INSERT INTO t (v) VALUES ('", quoted, "')"),
        concat(comment, quoted),
    ]
    return [(value.policies(), value.rangemap) for value in values]


def _record_batch(recorder, calls):
    """Record ``calls`` (keyword dicts) while holding the writer off, so
    they reach the ledger as one drained batch."""
    with recorder._cond:
        for fields in calls:
            recorder.record("export", verdict="allow", **fields)
    recorder.flush()


class OneAtATimeLedger(AuditLedger):
    """A disk ledger that takes a batch as single ``append`` calls."""

    def append_batch(self, events):
        return [self.append(event) for event in events]


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

    def test_check_export_is_recorded_like_a_default_filter(self, resin, recorder):
        """An application-defined filter that runs ``check_export`` with its
        channel's context records the event the default filter records."""

        class AppFilter(Filter):
            def filter_write(self, data, offset=0):
                return check_export(data, self.context)

        pw = resin.taint("s3cret", PasswordPolicy("a@b.c"))
        for user, chair in [("alice", False), ("chair", True)]:
            channel = resin.channel("http", user=user, priv_chair=chair)
            channel.add_filter(AppFilter())
            default, app_filter = channel.filter.filters
            for flt in (default, app_filter):
                try:
                    flt.filter_write(pw)
                except DisclosureViolation:
                    pass
        events = [
            {key: value for key, value in event.items() if key not in ("seq", "ts")}
            for event in recorder.events(kind="export")
        ]
        assert [e["verdict"] for e in events] == ["deny", "deny", "allow", "allow"]
        assert events[1] == events[0] and events[3] == events[2]
        assert events[1]["principal"] == "alice"
        assert events[1]["violation"]["type"] == "DisclosureViolation"

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

    def test_failed_event_costs_only_itself(self, tmp_path):
        recorder = AuditRecorder(AuditLedger(str(tmp_path)))
        calls = [{"detail": {"n": n}} for n in range(5)]
        calls[1] = {"detail": {"n": 1, "handle": object()}}  # fails to frame
        calls[3] = {"detail": {"n": 3}, "policies": 42}  # fails to build
        _record_batch(recorder, calls)
        assert recorder.record_errors == 2
        assert recorder.events_recorded == 3
        events = list(recorder.ledger.iter_events())
        assert [e["detail"]["n"] for e in events] == [0, 2, 4]
        assert [e["seq"] for e in events] == [1, 2, 3]
        recorder.close()

    def test_close_drains_pending_events(self):
        recorder = AuditRecorder(MemoryLedger())
        for n in range(50):
            recorder.record("export", verdict="allow", detail={"n": n})
        recorder.close()
        assert recorder.events_recorded == 50


class TestWriterPath:
    """The writer serializes each distinct policy once and appends each
    drained batch at once; neither changes what the ledger holds."""

    def test_batch_path_writes_what_single_appends_write(self, tmp_path):
        calls = [
            {"policies": policies, "rangemap": rangemap, "detail": {"n": n}}
            for n, (policies, rangemap) in enumerate(_exports() * 3)
        ]
        batched = AuditRecorder(AuditLedger(str(tmp_path / "batched")))
        single = AuditRecorder(OneAtATimeLedger(str(tmp_path / "single")))
        for recorder in (batched, single):
            _record_batch(recorder, calls)
            recorder.close()

        def stored(directory):
            with AuditLedger(directory) as ledger:
                events = list(ledger.iter_events())
            for event in events:
                del event["ts"]
            return events

        events = stored(str(tmp_path / "batched"))
        assert [e["seq"] for e in events] == list(range(1, len(calls) + 1))
        assert all(e["provenance"] for e in events)
        assert events == stored(str(tmp_path / "single"))

    def test_every_blob_is_its_policys_serialization(self):
        recorder = AuditRecorder(MemoryLedger())
        exports = _exports() * 2
        _record_batch(
            recorder,
            [{"policies": p, "rangemap": r} for p, r in exports],
        )
        events = list(recorder.ledger.iter_events())
        assert len(events) == len(exports)
        for event, (policies, rangemap) in zip(events, exports):
            blobs = event["policies"]
            assert sorted(map(repr, blobs)) == sorted(
                repr(serialize_policy(p)) for p in policies
            )
            segments = [s for s in rangemap.to_segments() if s[2]]
            assert len(event["provenance"]) == len(segments)
            for (start, stop, refs), segment in zip(event["provenance"], segments):
                assert (start, stop) == segment[:2]
                assert sorted(repr(blobs[i]) for i in refs) == sorted(
                    repr(serialize_policy(p)) for p in segment[2]
                )
        recorder.close()

    def test_equal_policies_share_one_memo_entry(self):
        first, second = SQLSanitized("sql_quote"), SQLSanitized("sql_quote")
        assert first is not second and first == second
        recorder = AuditRecorder(MemoryLedger())
        _record_batch(recorder, [{"policies": [first]}, {"policies": [second]}])
        one, two = recorder.ledger.iter_events()
        assert one["policies"] == two["policies"] == [serialize_policy(first)]
        assert list(recorder._policy_memo) == [first]
        recorder.close()

    def test_equal_policies_of_other_field_types_share_the_first_blob(self):
        # Policy equality treats a list field like a tuple, and 1 like True;
        # the serialization does not.  The memo follows the equality.
        class Tagged(Policy):
            def __init__(self, tags):
                self.tags = tags

        pairs = [
            (Tagged(["a", "b"]), Tagged(("a", "b"))),
            (Tagged(1), Tagged(True)),
        ]
        def text(blob):  # JSON, where 1 and True differ
            return json.dumps(blob, sort_keys=True)

        recorder = AuditRecorder(MemoryLedger())
        for first, second in pairs:
            assert first == second
            assert text(serialize_policy(first)) != text(serialize_policy(second))
            _record_batch(recorder, [{"policies": [first]}, {"policies": [second]}])
        events = list(recorder.ledger.iter_events())
        assert [text(e["policies"]) for e in events] == [
            text([serialize_policy(first)]) for first, _ in pairs for _ in range(2)
        ]
        # A query by instance matches blobs by serialization, so it finds
        # both events under the first instance's form only.
        as_list, as_tuple = pairs[0]
        assert [e["seq"] for e in recorder.events(policy=as_list)] == [1, 2]
        assert list(recorder.events(policy=as_tuple)) == []
        recorder.close()

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(recorder_module, "_POLICY_MEMO_LIMIT", 4)
        recorder = AuditRecorder(MemoryLedger())
        policies = [UntrustedData(f"source-{n}") for n in range(10)]
        _record_batch(recorder, [{"policies": [p, HTMLSanitized()]} for p in policies])
        assert 0 < len(recorder._policy_memo) <= 4
        for event, policy in zip(recorder.ledger.iter_events(), policies):
            assert event["policies"] == [
                serialize_policy(policy),
                serialize_policy(HTMLSanitized()),
            ]
        recorder.close()

    def test_unhashable_policies_still_record(self):
        class Tagged(Policy):
            def __init__(self, tags):
                self.tags = list(tags)

        class NoHash(Policy):
            __hash__ = None

            def __init__(self, level):
                self.level = level

        policies = [Tagged(["a", "b"]), Tagged(["a", "b"]), NoHash(3), NoHash(3)]
        recorder = AuditRecorder(MemoryLedger())
        _record_batch(recorder, [{"policies": [p]} for p in policies])
        assert recorder.record_errors == 0
        events = list(recorder.ledger.iter_events())
        assert [e["policies"] for e in events] == [
            [serialize_policy(p)] for p in policies
        ]
        assert list(recorder._policy_memo) == [Tagged(["a", "b"])]
        recorder.close()


class TestServiceWiring:
    def test_recorder_for_prefers_env_service(self, resin, recorder):
        assert recorder_for(resin.env) is recorder
        assert resin.audit is recorder

    def test_recorder_for_none_without_audit(self):
        assert recorder_for(Resin().env) is None

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
