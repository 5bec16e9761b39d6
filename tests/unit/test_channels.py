"""Unit tests for the I/O channels and the SQL policy-persistence channel."""

import sys
import threading

import pytest

from repro.channels import (CodeChannel, Database, EmailChannel,
                            HTTPOutputChannel, MailTransport, PipeChannel,
                            SocketChannel, is_policy_column, policy_column)
from repro.channels import sqlchan
from repro.channels.sqlchan import (apply_cell_policies,
                                    serialize_cell_policies)
from repro.core.exceptions import (ChannelError, DisclosureViolation,
                                   PolicyViolation, SerializationError)
from repro.core.filter import Filter
from repro.core.policyset import PolicySet
from repro.core.api import policy_add, policy_get
from repro.core.policy import Policy
from repro.core.request_context import RequestContext
from repro.core.serialization import UnknownPolicy
from repro.policies import PasswordPolicy, ReadAccessPolicy, UntrustedData
from repro.security.assertions import UntrustedInputFilter
from repro.sql.engine import Engine
from repro.tracking.propagation import concat
from repro.tracking.tainted_number import taint_int
from repro.tracking.tainted_str import taint_str

U = UntrustedData("test")
PW = PasswordPolicy("owner@example.org")


class TestCollectingChannels:
    def test_socket_write_records_transmission(self):
        sock = SocketChannel("peer.example.org")
        sock.write("hello")
        assert sock.transcript() == "hello"
        assert sock.context["peer"] == "peer.example.org"

    def test_socket_export_check_blocks_secret(self):
        sock = SocketChannel()
        with pytest.raises(DisclosureViolation):
            sock.write(policy_add("pw", PW))
        assert sock.transcript() == ""

    def test_socket_read_feeds_through_filters(self):
        sock = SocketChannel()
        sock.add_filter(UntrustedInputFilter("whois"))
        sock.feed("malicious record")
        data = sock.read()
        assert policy_get(data).has_type(UntrustedData)

    def test_read_empty_channel(self):
        assert SocketChannel().read() == ""

    def test_closed_channel_rejects_io(self):
        sock = SocketChannel()
        sock.close()
        with pytest.raises(ChannelError):
            sock.write("x")
        with pytest.raises(ChannelError):
            sock.read()

    def test_pipe_channel_context(self):
        pipe = PipeChannel("sendmail -t")
        assert pipe.context["command"] == "sendmail -t"
        pipe.write("body")
        assert pipe.transcript() == "body"

    def test_transcript_decodes_bytes(self):
        sock = SocketChannel()
        sock.write(b"raw bytes")
        assert sock.transcript() == "raw bytes"


class TestHTTPOutputChannel:
    def test_write_and_body(self):
        channel = HTTPOutputChannel()
        channel.write("<p>hi</p>")
        assert channel.body() == "<p>hi</p>"
        assert "<p>hi</p>" in channel

    def test_set_user_updates_context(self):
        channel = HTTPOutputChannel()
        channel.set_user("alice", priv_chair=True)
        assert channel.context["user"] == "alice"
        assert channel.context["priv_chair"] is True

    def test_password_blocked_for_other_user(self):
        channel = HTTPOutputChannel()
        channel.set_user("mallory")
        with pytest.raises(DisclosureViolation):
            channel.write(policy_add("pw", PW))
        assert channel.body() == ""

    def test_password_allowed_for_chair(self):
        channel = HTTPOutputChannel()
        channel.set_user("chair", priv_chair=True)
        channel.write(policy_add("pw", PW))
        assert "pw" in channel.body()

    def test_buffering_discard_substitutes_alternate(self):
        channel = HTTPOutputChannel()
        channel.write("before ")
        channel.start_buffering()
        channel.write("secret-authors")
        channel.discard_buffer("Anonymous")
        channel.write(" after")
        assert channel.body() == "before Anonymous after"

    def test_buffering_release(self):
        channel = HTTPOutputChannel()
        channel.start_buffering()
        channel.write("kept")
        channel.release_buffer()
        assert channel.body() == "kept"

    def test_violation_raised_before_buffering(self):
        channel = HTTPOutputChannel()
        channel.set_user("mallory")
        channel.start_buffering()
        with pytest.raises(PolicyViolation):
            channel.write(policy_add("pw", PW))
        channel.discard_buffer("fallback")
        assert channel.body() == "fallback"

    def test_headers_flow_through_filters(self):
        from repro.security.assertions import ResponseSplittingFilter
        channel = HTTPOutputChannel()
        channel.add_filter(ResponseSplittingFilter())
        channel.add_header("X-Plain", "ok")
        assert ("X-Plain", "ok") in channel.headers
        from repro.security.assertions import mark_untrusted
        with pytest.raises(PolicyViolation):
            channel.add_header("Location",
                               mark_untrusted("x\r\n\r\nHTTP/1.1 200 OK"))

    def test_status(self):
        channel = HTTPOutputChannel()
        channel.set_status(404)
        assert channel.status == 404


class TestMailTransport:
    def test_send_to_owner_allowed(self):
        mail = MailTransport()
        body = concat("your password: ", policy_add("pw", PW))
        message = mail.send("owner@example.org", "reminder", body)
        assert message.to == "owner@example.org"
        assert mail.sent_to("owner@example.org")

    def test_send_to_other_recipient_blocked(self):
        mail = MailTransport()
        body = concat("your password: ", policy_add("pw", PW))
        with pytest.raises(DisclosureViolation):
            mail.send("eve@example.org", "fwd", body)
        assert not mail.outbox

    def test_plain_mail(self):
        mail = MailTransport(default_sender="site@example.org")
        message = mail.send("anyone@example.org", "hello", "plain body")
        assert message.sender == "site@example.org"
        assert "hello" in repr(message)
        mail.clear()
        assert not mail.outbox

    def test_email_channel_context(self):
        channel = EmailChannel("user@example.org")
        assert channel.context["email"] == "user@example.org"


class TestCodeChannel:
    def test_default_filter_allows_plain_code(self):
        channel = CodeChannel()
        assert channel.load("print('hi')") == "print('hi')"

    def test_origin_recorded(self):
        channel = CodeChannel()
        channel.load("x = 1", origin="/www/app.php")
        assert channel.context["origin"] == "/www/app.php"

    def test_channel_is_read_only(self):
        with pytest.raises(NotImplementedError):
            CodeChannel().write("code")


class TestDatabaseChannel:
    @pytest.fixture
    def db(self):
        db = Database(Engine(), persist_policies=True)
        db.execute_unchecked("CREATE TABLE t (name TEXT, secret TEXT, n INTEGER)")
        return db

    def test_policy_columns_added_to_schema(self, db):
        table = db.engine.tables["t"]
        assert policy_column("secret") in table.column_names
        assert is_policy_column(policy_column("secret"))

    def test_cell_policies_roundtrip(self, db):
        secret = policy_add("hunter2", PW)
        db.query(concat("INSERT INTO t (name, secret, n) VALUES ('alice', '",
                        secret, "', 3)"))
        row = db.query("SELECT name, secret, n FROM t").rows[0]
        assert policy_get(row["secret"]).has_type(PasswordPolicy)
        assert policy_get(row["name"]) == PolicySet.empty()

    def test_select_star_reattaches_policies(self, db):
        db.query(concat("INSERT INTO t (name, secret, n) VALUES ('a', '",
                        policy_add("s", U), "', 1)"))
        row = db.query("SELECT * FROM t").rows[0]
        assert policy_get(row["secret"]) == PolicySet.of(U)
        assert not any(is_policy_column(c) for c in
                       db.query("SELECT * FROM t").columns)

    def test_partial_taint_survives_roundtrip(self, db):
        value = "id=" + taint_str("42", U)
        db.query(concat("INSERT INTO t (name, secret, n) VALUES ('a', '",
                        value, "', 1)"))
        stored = db.query("SELECT secret FROM t").rows[0]["secret"]
        assert stored.policies_at(0) == PolicySet.empty()
        assert stored.policies_at(3) == PolicySet.of(U)

    def test_update_refreshes_policies(self, db):
        db.query("INSERT INTO t (name, secret, n) VALUES ('a', 'old', 1)")
        db.query(concat("UPDATE t SET secret = '", policy_add("new", U),
                        "' WHERE name = 'a'"))
        stored = db.query("SELECT secret FROM t").rows[0]["secret"]
        assert policy_get(stored) == PolicySet.of(U)
        db.query("UPDATE t SET secret = 'plain' WHERE name = 'a'")
        stored = db.query("SELECT secret FROM t").rows[0]["secret"]
        assert policy_get(stored) == PolicySet.empty()

    @pytest.mark.parametrize("overwrite_first", [False, True],
                             ids=["copy-then-overwrite", "overwrite-then-copy"])
    def test_update_column_copy_carries_policies(self, db, overwrite_first):
        # Assignments apply in order: the copy takes the source's old value
        # and old policy, or its new value and new policy.
        reader = ReadAccessPolicy(["alice"], label="update-copy")
        db.query(concat("INSERT INTO t (name, secret, n) VALUES ('",
                        policy_add("s3cret", reader), "', 'old', 1)"))
        overwrite = concat("name = '", policy_add("x", U), "'")
        assignments = ((overwrite, ", secret = name") if overwrite_first
                       else ("secret = name, ", overwrite))
        db.query(concat("UPDATE t SET ", *assignments))
        row = db.query("SELECT name, secret FROM t").rows[0]
        expected = ("x", U) if overwrite_first else ("s3cret", reader)
        assert row["secret"] == expected[0]
        assert policy_get(row["secret"]) == PolicySet.of(expected[1])
        assert policy_get(row["name"]) == PolicySet.of(U)

    def test_each_distinct_blob_decodes_once(self, db, monkeypatch):
        # A label no other test uses: the decode memo is process-wide, so
        # this blob must be new to it.
        shared = ReadAccessPolicy(["alice"], label="decode-once")
        rows = 25
        for i in range(rows):
            db.query(concat("INSERT INTO t (name, secret, n) VALUES ('r', '",
                            policy_add("v", shared), f"', {i})"))
        decodes = []
        for name in ("deserialize_policyset", "deserialize_rangemap"):
            original = getattr(sqlchan, name)

            def counting(*args, _original=original, **kwargs):
                decodes.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(sqlchan, name, counting)
        for _ in range(2):
            cells = [row["secret"]
                     for row in db.query("SELECT secret FROM t").rows]
            assert len(cells) == rows
            assert all(policy_get(cell) == PolicySet.of(shared)
                       for cell in cells)
        assert len(decodes) == 1

    def test_decode_memo_under_concurrent_reads(self, db, monkeypatch):
        # More readers than cores and more distinct blobs than a shrunken
        # bound, so memo inserts race with clears: every cell must still
        # carry its own row's policy.
        monkeypatch.setattr(sqlchan, "_BLOB_CACHE_LIMIT", 3)
        owners = [f"concurrent-{i}" for i in range(8)]
        for i, owner in enumerate(owners):
            policy = ReadAccessPolicy([owner], label=owner)
            db.query(concat("INSERT INTO t (name, secret, n) VALUES ('",
                            owner, "', '", policy_add("v", policy),
                            f"', {i})"))
        errors = []

        def reader():
            try:
                for _ in range(20):
                    for row in db.query("SELECT name, secret FROM t").rows:
                        (policy,) = policy_get(row["secret"])
                        assert policy.allowed_users == {str(row["name"])}
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in owners]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(sqlchan._blob_cache) <= 3

    def test_cell_keeps_policy_for_a_reader_it_allows(self, db):
        alice_only = ReadAccessPolicy(["alice"], label="reader-allowed")
        db.query(concat("INSERT INTO t (name, secret, n) VALUES ('a', '",
                        policy_add("for alice", alice_only), "', 1)"))
        mail = MailTransport()
        with RequestContext(user="alice"):
            cell = db.query("SELECT secret FROM t").rows[0]["secret"]
            assert policy_get(cell) == PolicySet.of(alice_only)
            with pytest.raises(PolicyViolation):
                mail.send("bob@example.org", "fwd", cell)
        assert not mail.outbox

    def test_failed_decodes_are_not_memoized(self, db):
        missing = "tests.late_arrival.LatePolicy"
        blob = ('{"kind": "policyset", "policies": '
                f'[{{"class": "{missing}", "fields": {{}}}}]}}')
        db.query("INSERT INTO t (name, secret, n) VALUES ('a', 'kept', 1)")
        db.query(f"UPDATE t SET {policy_column('secret')} = '{blob}'")
        for _ in range(2):
            with pytest.raises(SerializationError):
                db.query("SELECT secret FROM t")
        db.tolerant_policies = True
        cell = db.query("SELECT secret FROM t").rows[0]["secret"]
        assert cell == "kept"
        (placeholder,) = policy_get(cell)
        assert isinstance(placeholder, UnknownPolicy)
        assert placeholder.class_name == missing
        # Once the class is importable, neither a tolerant nor a strict read
        # may still see the placeholder.
        late = type("LatePolicy", (Policy,),
                    {"__module__": "tests.late_arrival"})
        for tolerant in (True, False):
            db.tolerant_policies = tolerant
            cell = db.query("SELECT secret FROM t").rows[0]["secret"]
            assert [type(p) for p in policy_get(cell)] == [late]

    def test_delete_and_aggregate_pass_through(self, db):
        db.query("INSERT INTO t (name, secret, n) VALUES ('a', 'x', 1)")
        assert db.query("SELECT COUNT(*) AS c FROM t").scalar() == 1
        assert db.query("DELETE FROM t").rowcount == 1

    def test_custom_filter_sees_query(self, db):
        seen = []

        class Spy(Filter):
            def filter_func(self, func, args, kwargs):
                seen.append(str(args[0]))
                return func(*args, **kwargs)

        db.add_filter(Spy())
        db.query("SELECT name FROM t")
        assert seen and seen[0].startswith("SELECT name")

    def test_persistence_disabled(self):
        db = Database(Engine(), persist_policies=False)
        db.execute_unchecked("CREATE TABLE p (v TEXT)")
        assert policy_column("v") not in db.engine.tables["p"].column_names
        db.query(concat("INSERT INTO p (v) VALUES ('", policy_add("s", U),
                        "')"))
        row = db.query("SELECT v FROM p").rows[0]
        assert policy_get(row["v"]) == PolicySet.empty()

    def test_default_filter_checks_query_policies(self, db):
        # A password embedded in a query is flowing to the SQL channel, which
        # is an internal boundary: the policy allows it (persistence filters
        # serialize rather than reject).
        secret = policy_add("pw", PW)
        db.query(concat("INSERT INTO t (name, secret, n) VALUES ('o', '",
                        secret, "', 1)"))

    def test_serialize_apply_cell_policies_helpers(self):
        assert serialize_cell_policies("plain") is None
        blob = serialize_cell_policies(taint_str("x", U))
        assert policy_get(apply_cell_policies("x", blob)) == PolicySet.of(U)
        number_blob = serialize_cell_policies(taint_int(3, U))
        assert policy_get(apply_cell_policies(3, number_blob)) == PolicySet.of(U)
        assert apply_cell_policies(None, blob) is None
        assert apply_cell_policies("x", None) == "x"
