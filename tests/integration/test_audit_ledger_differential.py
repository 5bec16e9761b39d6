"""The disk ledger against the in-memory one, over the same recorded events.

One recorder hands each built batch to a tee: a :class:`MemoryLedger` and
an :class:`AuditLedger` get the same events, each in its own event dict,
sharing the recorder's blob dicts.  The disk ledger's segments are small,
so the stream crosses several rotations and a retention purge.  Reopened,
the disk ledger must read back what the memory ledger holds over the
window retention kept: the same events, and the same answers to
``events(policy=...)`` (by instance, by class and by name) and
``provenance_of(...)``.
"""

import pytest

from repro.audit.ledger import AuditLedger, MemoryLedger
from repro.audit.query import events, provenance_of
from repro.audit.recorder import SERVICE_NAME, AuditRecorder
from repro.core.exceptions import PolicyViolation
from repro.policies import PasswordPolicy, SQLSanitized, UntrustedData
from repro.runtime_api import Resin
from repro.tracking import concat, taint_str
from repro.web.sanitize import html_escape, sql_quote


class TeeLedger:
    """Both ledgers get every batch; the memory one answers for the pair."""

    def __init__(self, memory, disk):
        self.memory = memory
        self.disk = disk

    def append_batch(self, batch):
        batch = list(batch)
        seqs = self.memory.append_batch([dict(event) for event in batch])
        assert self.disk.append_batch([dict(event) for event in batch]) == seqs
        return seqs

    def flush(self):
        self.disk.flush()

    def iter_events(self, *, since_seq=0):
        return self.memory.iter_events(since_seq=since_seq)

    def close(self):
        self.disk.close()


class Window:
    """The memory ledger's events from ``first_seq`` on."""

    def __init__(self, ledger, first_seq):
        self.ledger = ledger
        self.first_seq = first_seq

    def iter_events(self, *, since_seq=0):
        return self.ledger.iter_events(since_seq=max(since_seq, self.first_seq - 1))


USERS = [f"user{n}@example.org" for n in range(6)]


def _serve(resin, recorder):
    """Pages and queries by several users: allows and denies of passwords,
    sanitized form input and markers, on the http and sql channels.  Each
    round is drained on its own, so every round's batches rotate."""
    resin.db.execute_unchecked("CREATE TABLE notes (author TEXT, body TEXT)")
    passwords = {user: taint_str(f"pw-{user}", PasswordPolicy(user)) for user in USERS}
    for round_ in range(12):
        for user in USERS:
            comment = taint_str(f"<b>{round_}</b> & {user}", UntrustedData(user))
            with resin.request(user=user) as http:
                http.write(concat("<p>", html_escape(comment), "</p>"))
                try:
                    http.write(concat("pw: ", passwords[USERS[round_ % 6]]))
                except PolicyViolation:
                    pass
            resin.db.query(
                concat(
                    "INSERT INTO notes (author, body) VALUES ('",
                    sql_quote(taint_str(user, UntrustedData("login"))),
                    "', '",
                    sql_quote(comment),
                    "')",
                )
            )
        resin.declassify(passwords[USERS[round_ % 6]])
        recorder.flush()


@pytest.fixture
def ledgers(tmp_path):
    directory = str(tmp_path / "audit")
    memory = MemoryLedger()
    disk = AuditLedger(directory, segment_bytes=1024, retain_segments=3)
    resin = Resin()
    recorder = AuditRecorder(TeeLedger(memory, disk))
    resin.env.services.register(SERVICE_NAME, recorder)
    _serve(resin, recorder)
    recorder.close()
    assert recorder.record_errors == 0
    assert disk.segments_purged > 0
    reopened = AuditLedger(directory)
    yield memory, reopened
    reopened.close()


def test_the_reopened_disk_ledger_reads_what_memory_holds(ledgers):
    memory, disk = ledgers
    stored = list(disk.iter_events())
    assert len(disk.segment_ids()) == 4
    first_seq = stored[0]["seq"]
    assert first_seq > 1
    assert stored == list(Window(memory, first_seq).iter_events())
    assert {event["verdict"] for event in stored} == {"allow", "deny"}
    assert {event["channel"] for event in stored} >= {"http", "sql"}


@pytest.mark.parametrize(
    "policy",
    [
        PasswordPolicy(USERS[5]),
        UntrustedData(USERS[4]),
        SQLSanitized("sql_quote"),
        PasswordPolicy,
        UntrustedData,
        "PasswordPolicy",
        "repro.policies.untrusted.HTMLSanitized",
    ],
    ids=repr,
)
def test_queries_answer_alike(ledgers, policy):
    memory, disk = ledgers
    first_seq = next(disk.iter_events())["seq"]
    window = Window(memory, first_seq)
    found = list(events(disk, policy=policy))
    assert found and found == list(events(window, policy=policy))
    chain = provenance_of(disk, policy)
    assert chain == provenance_of(window, policy)
