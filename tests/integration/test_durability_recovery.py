"""Integration tests for the durable storage engine.

The paper's persistence story (Section 3.4.1): policies stay attached to
data as it moves to stable storage and back.  These tests cover the whole
cycle — log, crash, recover — including:

* the kill-anywhere harness: the WAL is truncated (and corrupted) at every
  byte boundary of its final record and recovery must yield exactly the
  committed prefix state;
* Table 4 verdict parity: the admissions SQL-injection row and the MoinMoin
  write-ACL row produce identical verdicts before and after a durable
  close/reopen cycle;
* tolerant recovery: records referencing unknown policy/filter classes load
  as deny-by-default placeholders instead of failing the whole store;
* checkpoint invariance: a checkpoint after any step of a script that logs
  every record type never changes what a reopen recovers, and a reopen
  recovers the live state exactly;
* records that cannot apply (an unlink of a missing path, a write onto a
  directory, ...) abort recovery loudly, and a failed open leaves no
  segment file open.
"""

import json
import os
import shutil
import threading

import pytest

from repro.core.exceptions import (
    AccessDenied,
    FileSystemError,
    PolicyViolation,
    RecoveryError,
    SerializationError,
)
from repro.core.filter import Filter
from repro.core.serialization import (
    UnknownFilter,
    UnknownPolicy,
    serialize_filter,
)
from repro.fs.resinfs import FILTER_XATTR, POLICY_XATTR
from repro.policies import ACL, UntrustedData
from repro.runtime_api import Resin
from repro.security.assertions import WriteAccessFilter
from repro.sql.indexes import SecondaryIndex
from repro.storage import framing
from repro.storage.wal import WriteAheadLog
from repro.tracking.propagation import concat
from repro.tracking.tainted_str import taint_str


def fingerprint(resin):
    """A comparable image of the full durable state: every table (plain cell
    values) and every filesystem node (data + policy xattr)."""
    engine = resin.db.engine
    tables = {
        name: (
            list(table.column_names),
            [[row[c] for c in table.column_names] for row in table.rows],
        )
        for name, table in sorted(engine.tables.items())
    }
    nodes = {}

    def walk(node, path):
        policy = node.xattrs.get(POLICY_XATTR)
        nodes[path or "/"] = (node.kind, node.data, policy)
        if node.is_dir:
            for name, child in sorted(node.entries.items()):
                walk(child, f"{path}/{name}")

    walk(resin.fs.raw.root, "")
    return (tables, nodes)


def reopen_fingerprint(directory, **kwargs):
    resin = Resin.open(directory, **kwargs)
    try:
        return fingerprint(resin)
    finally:
        resin.durability.close()


@pytest.fixture
def segment_handles(monkeypatch):
    """Every segment file handle opened during the test."""
    handles = []
    open_segment = framing.open_segment

    def spy(path):
        handle = open_segment(path)
        handles.append(handle)
        return handle

    monkeypatch.setattr(framing, "open_segment", spy)
    return handles


def assert_all_closed(handles):
    assert handles, "no segment file was opened"
    still_open = [handle.name for handle in handles if not handle.closed]
    assert not still_open, f"segment files left open: {still_open}"


class TestBasicCycle:
    def test_tables_and_files_survive_reopen(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        resin.db.query("CREATE TABLE kv (k TEXT, v TEXT)")
        resin.db.query("INSERT INTO kv (k, v) VALUES ('a', '1')")
        resin.fs.mkdir("/data")
        resin.fs.write_text("/data/f.txt", "hello")
        before = fingerprint(resin)
        resin.durability.close()

        resin2 = Resin.open(store)
        assert fingerprint(resin2) == before
        rows = resin2.db.query("SELECT k, v FROM kv").rows
        assert [(str(r["k"]), str(r["v"])) for r in rows] == [("a", "1")]
        assert str(resin2.fs.read_text("/data/f.txt")) == "hello"
        resin2.durability.close()

    def test_policies_survive_reopen(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        resin.db.query("CREATE TABLE notes (id INT, body TEXT)")
        resin.db.query(concat(
            "INSERT INTO notes (id, body) VALUES (1, '",
            taint_str("secret", UntrustedData("form")), "')"))
        resin.fs.write_text(
            "/tainted.txt", taint_str("leak", UntrustedData("upload")))
        resin.durability.close()

        resin2 = Resin.open(store)
        body = resin2.db.query("SELECT body FROM notes").rows[0]["body"]
        assert {type(p) for p in body.policies()} == {UntrustedData}
        data = resin2.fs.read_text("/tainted.txt")
        assert {type(p) for p in data.policies()} == {UntrustedData}
        resin2.durability.close()

    def test_update_delete_drop_replay(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        resin.db.query("CREATE TABLE t (k TEXT, v TEXT)")
        resin.db.query("CREATE TABLE doomed (x TEXT)")
        for k in ("a", "b", "c"):
            resin.db.query(
                f"INSERT INTO t (k, v) VALUES ('{k}', 'old')")
        resin.db.query("UPDATE t SET v = 'new' WHERE k = 'b'")
        resin.db.query("DELETE FROM t WHERE k = 'a'")
        resin.db.query("DROP TABLE doomed")
        resin.fs.mkdir("/dir")
        resin.fs.write_text("/dir/f", "x")
        resin.fs.rename("/dir/f", "/dir/g")
        resin.fs.write_text("/gone", "y")
        resin.fs.unlink("/gone")
        before = fingerprint(resin)
        resin.durability.close()

        assert reopen_fingerprint(store) == before
        resin2 = Resin.open(store)
        rows = resin2.db.query("SELECT k, v FROM t").rows
        assert sorted((str(r["k"]), str(r["v"])) for r in rows) == [
            ("b", "new"), ("c", "old")]
        assert "doomed" not in resin2.db.engine.tables
        assert str(resin2.fs.read_text("/dir/g")) == "x"
        assert not resin2.fs.exists("/gone")
        resin2.durability.close()

    def test_persistent_filter_survives_and_enforces(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        resin.fs.mkdir("/wiki")
        resin.fs.set_persistent_filter(
            "/wiki", WriteAccessFilter(acl=ACL.parse("alice:read,write")))
        resin.fs.set_request_context(user="alice")
        resin.fs.write_text("/wiki/page", "v1")
        resin.durability.close()

        resin2 = Resin.open(store)
        restored = resin2.fs.get_persistent_filter("/wiki")
        assert isinstance(restored, WriteAccessFilter)
        assert restored.acl.may("alice", "write")
        resin2.fs.set_request_context(user="mallory")
        with pytest.raises(AccessDenied):
            resin2.fs.write_text("/wiki/page", "defaced")
        resin2.fs.set_request_context(user="alice")
        resin2.fs.write_text("/wiki/page", "v2")
        resin2.durability.close()

        resin3 = Resin.open(store)
        assert str(resin3.fs.read_text("/wiki/page")) == "v2"
        resin3.durability.close()

    def test_callable_filter_is_skipped_not_fatal(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        resin.fs.mkdir("/home")
        resin.fs.set_persistent_filter(
            "/home", WriteAccessFilter(allowed=lambda u, op, p: u == "bob"))
        resin.durability.close()
        resin2 = Resin.open(store)
        # The callable carries code, which persistent records never store:
        # the filter is simply absent after recovery (re-attach at startup).
        assert resin2.fs.get_persistent_filter("/home") is None
        resin2.durability.close()

    def test_filter_removal_is_durable(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        resin.fs.write_text("/f", "x")
        resin.fs.set_persistent_filter(
            "/f", WriteAccessFilter(acl=ACL.parse("alice:write")))
        resin.fs.remove_persistent_filter("/f")
        resin.durability.close()
        resin2 = Resin.open(store)
        assert resin2.fs.get_persistent_filter("/f") is None
        resin2.durability.close()

    def test_double_open_guard(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        from repro.core.exceptions import FilterError
        resin._ensure_durable(store)  # same directory: no-op
        with pytest.raises(FilterError):
            resin._ensure_durable(str(tmp_path / "elsewhere"))
        resin.durability.close()


class TestCheckpointCompaction:
    def test_checkpoint_retires_segments(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        resin.db.query("CREATE TABLE t (k TEXT)")
        for i in range(5):
            resin.db.query(f"INSERT INTO t (k) VALUES ('{i}')")
        before = fingerprint(resin)
        assert resin.durability.checkpoint() >= 1
        names = sorted(os.listdir(store))
        assert len([n for n in names if n.endswith(".snap")]) == 1
        assert len([n for n in names if n.endswith(".wal")]) == 1
        # The live segment is empty: everything lives in the snapshot.
        assert reopen_fingerprint(store) == before
        resin.durability.close()

    def test_snapshot_plus_tail(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        resin.db.query("CREATE TABLE t (k TEXT)")
        resin.db.query("INSERT INTO t (k) VALUES ('snapshotted')")
        resin.fs.write_text("/pre", "1")
        resin.durability.checkpoint()
        resin.db.query("INSERT INTO t (k) VALUES ('tail')")
        resin.fs.write_text("/post", "2")
        before = fingerprint(resin)
        resin.durability.close()
        assert reopen_fingerprint(store) == before

    def test_auto_checkpoint_on_threshold(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store, checkpoint_bytes=512)
        resin.db.query("CREATE TABLE t (k TEXT)")
        for i in range(30):
            resin.db.query(f"INSERT INTO t (k) VALUES ('row-{i:04d}')")
        assert resin.durability.checkpoints >= 1
        before = fingerprint(resin)
        resin.durability.close()
        assert reopen_fingerprint(store) == before

    def test_repeated_cycles_converge(self, tmp_path):
        store = str(tmp_path / "store")
        expected = None
        for cycle in range(4):
            resin = Resin.open(store)
            if cycle == 0:
                resin.db.query("CREATE TABLE t (n INT)")
            resin.db.query(f"INSERT INTO t (n) VALUES ({cycle})")
            if cycle == 1:
                resin.durability.checkpoint()
            expected = fingerprint(resin)
            resin.durability.close()
        assert reopen_fingerprint(store) == expected
        resin = Resin.open(store)
        assert len(resin.db.query("SELECT n FROM t").rows) == 4
        resin.durability.close()


def _seed_store(directory):
    """A small workload whose last WAL record is an easily-checked insert."""
    resin = Resin.open(directory)
    resin.db.query("CREATE TABLE kv (k TEXT, v TEXT)")
    resin.db.query("INSERT INTO kv (k, v) VALUES ('a', '1')")
    resin.fs.write_text("/f.txt", "hello")
    resin.db.query("UPDATE kv SET v = '2' WHERE k = 'a'")
    full = fingerprint(resin)
    resin.db.query("INSERT INTO kv (k, v) VALUES ('b', '9')")
    final = fingerprint(resin)
    resin.durability.close()
    assert full != final
    return full, final


def _single_segment(directory):
    wal = WriteAheadLog(directory)
    ids = wal.segment_ids()
    wal.close()
    assert len(ids) == 1
    return os.path.join(directory, f"seg-{ids[0]:08d}.wal")


def durable_fingerprint(resin):
    """:func:`fingerprint` plus each table's indexes (definition and
    internal arrays, every ``SecondaryIndex`` slot) and every xattr of every
    node (filters by their serialized form)."""
    indexes = {
        name: sorted(
            tuple(getattr(index, slot) for slot in SecondaryIndex.__slots__)
            for index in table.indexes.values())
        for name, table in sorted(resin.db.engine.tables.items())
    }
    raw = resin.fs.raw
    xattrs = {
        path: {
            name: serialize_filter(value) if isinstance(value, Filter) else value
            for name, value in sorted(raw._lookup(path).xattrs.items())
        }
        for path in raw.walk("/")
    }
    return fingerprint(resin), indexes, xattrs


# One script that logs every record type the engine and ResinFS write:
# sql.create/insert/update/delete/create_index/drop_index/drop and
# fs.mkdir/write/rename/unlink/filter/unfilter.
EVERY_RECORD_SCRIPT = [
    lambda r: r.db.query("CREATE TABLE notes (id INT, a TEXT, b TEXT)"),
    lambda r: r.db.query(concat(
        "INSERT INTO notes (id, a, b) VALUES (1, 'x', '",
        taint_str("secret", UntrustedData("form")), "'), (2, 'y', 'z')")),
    lambda r: r.db.create_index("notes", "id", kind="hash"),
    lambda r: r.db.create_index("notes", "a"),
    lambda r: r.db.query("UPDATE notes SET a = b"),
    lambda r: r.db.query("DELETE FROM notes WHERE id = 2"),
    # Live index maintenance after the indexes exist: an UPDATE of an
    # indexed column rebuilds that index, an INSERT adds incrementally.
    lambda r: r.db.query("UPDATE notes SET id = 10 WHERE id = 1"),
    lambda r: r.db.query(
        "INSERT INTO notes (id, a, b) VALUES (3, 'w', 'v'), (4, 'c', 'd')"),
    lambda r: r.db.engine.run("DROP INDEX idx_notes_a"),
    lambda r: (r.db.query("CREATE TABLE doomed (x INT)"),
               r.db.query("DROP TABLE doomed")),
    lambda r: (r.fs.mkdir("/wiki"), r.fs.set_persistent_filter(
        "/wiki", WriteAccessFilter(acl=ACL.parse("alice:read,write")))),
    lambda r: r.fs.write_text(
        "/wiki/page", taint_str("plans", UntrustedData("upload"))),
    lambda r: (r.fs.mkdir("/tmp"), r.fs.write_text("/tmp/draft", "draft")),
    # Set on the raw filesystem: never logged, so never recovered.
    lambda r: r.fs.raw.set_xattr("/tmp/draft", "user.note", "x"),
    lambda r: r.fs.rename("/tmp/draft", "/tmp/final"),
    lambda r: r.fs.add_file_policy("/tmp/final", UntrustedData("import")),
    lambda r: (r.fs.set_persistent_filter(
        "/tmp/final", WriteAccessFilter(acl=ACL.parse("bob:write"))),
        r.fs.remove_persistent_filter("/tmp/final")),
    lambda r: (r.fs.write_text("/tmp/gone", "x"), r.fs.unlink("/tmp/gone")),
]


def run_every_record_script(store, checkpoint_after=None):
    """Run the script on a fresh store (checkpointing after step
    ``checkpoint_after``, if given) and return the live state just before
    close and the reopened state."""
    resin = Resin.open(store, sync="flush")
    resin.fs.set_request_context(user="alice")
    for step, action in enumerate(EVERY_RECORD_SCRIPT):
        action(resin)
        if step == checkpoint_after:
            resin.durability.checkpoint()
    live = durable_fingerprint(resin)
    resin.durability.close()
    reopened = Resin.open(store, sync="flush")
    try:
        return live, durable_fingerprint(reopened)
    finally:
        reopened.durability.close()


class TestCheckpointInvariance:
    """A checkpoint never changes what a reopen recovers: the snapshot is
    the store written as the WAL's own records, so replaying it plus the
    tail rebuilds exactly what replaying the whole log does.  And a reopen
    rebuilds the live state, index contents included, because replay
    applies each record with the mutators the live path used."""

    @pytest.fixture(scope="class")
    def without_checkpoint(self, tmp_path_factory):
        return run_every_record_script(
            str(tmp_path_factory.mktemp("no-checkpoint") / "store"))

    @pytest.mark.parametrize("step", range(len(EVERY_RECORD_SCRIPT)))
    def test_checkpoint_after_any_step_recovers_same_state(
            self, tmp_path, without_checkpoint, step):
        store = str(tmp_path / "store")
        _, recovered = run_every_record_script(store, checkpoint_after=step)
        assert recovered == without_checkpoint[1]
        _, indexes, xattrs = recovered
        assert [index[:4] for index in indexes["notes"]] == [
            ("idx_notes_id", "notes", "id", "hash")]
        assert xattrs["/wiki"][FILTER_XATTR]["fields"]
        assert POLICY_XATTR in xattrs["/tmp/final"]
        assert FILTER_XATTR not in xattrs["/tmp/final"]
        assert "user.note" not in xattrs["/tmp/final"]

    def test_reopen_recovers_live_state(self, without_checkpoint):
        live, recovered = without_checkpoint
        tables, indexes, xattrs = live
        assert xattrs["/tmp/final"]["user.note"] == "x"
        # The raw-filesystem xattr is the one mutation never logged.
        xattrs = {path: {name: value for name, value in attrs.items()
                         if name != "user.note"}
                  for path, attrs in xattrs.items()}
        assert recovered == (tables, indexes, xattrs)


class TestKillAnywhere:
    def test_truncate_every_boundary_of_final_record(self, tmp_path):
        store = str(tmp_path / "store")
        prefix_state, full_state = _seed_store(store)
        segment = _single_segment(store)
        with open(segment, "rb") as handle:
            data = handle.read()
        from repro.storage.framing import decode_records
        records, valid = decode_records(data)
        assert valid == len(data)
        # Offset of the final frame: decoding any strict prefix stops there.
        final_start = decode_records(data[:-1])[1]
        assert 0 < final_start < len(data)

        for cut in range(final_start, len(data) + 1):
            trial = str(tmp_path / f"cut-{cut}")
            shutil.copytree(store, trial)
            with open(os.path.join(trial, os.path.basename(segment)),
                      "r+b") as handle:
                handle.truncate(cut)
            state = reopen_fingerprint(trial)
            expected = full_state if cut == len(data) else prefix_state
            assert state == expected, f"truncation at byte {cut}"
            shutil.rmtree(trial)

    def test_corrupt_every_byte_of_final_record(self, tmp_path):
        store = str(tmp_path / "store")
        prefix_state, full_state = _seed_store(store)
        segment = _single_segment(store)
        with open(segment, "rb") as handle:
            data = handle.read()
        from repro.storage.framing import decode_records
        final_start = decode_records(data[:-1])[1]

        for index in range(final_start, len(data)):
            trial = str(tmp_path / f"flip-{index}")
            shutil.copytree(store, trial)
            corrupted = bytearray(data)
            corrupted[index] ^= 0xFF
            with open(os.path.join(trial, os.path.basename(segment)),
                      "wb") as handle:
                handle.write(bytes(corrupted))
            state = reopen_fingerprint(trial)
            assert state == prefix_state, f"corruption at byte {index}"
            shutil.rmtree(trial)

    def test_recovered_store_keeps_accepting_writes(self, tmp_path):
        store = str(tmp_path / "store")
        _seed_store(store)
        segment = _single_segment(store)
        with open(segment, "r+b") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            handle.truncate(size - 3)  # tear the final record
        resin = Resin.open(store)
        resin.db.query("INSERT INTO kv (k, v) VALUES ('c', '3')")
        resin.durability.close()
        resin2 = Resin.open(store)
        keys = sorted(str(r["k"])
                      for r in resin2.db.query("SELECT k FROM kv").rows)
        assert keys == ["a", "c"]
        resin2.durability.close()


class TestTable4Parity:
    """The paper's Table 4 verdicts must be identical before and after a
    durable close/reopen cycle: assertions keep blocking the attacks, and
    legitimate behaviour keeps working, on recovered state."""

    @staticmethod
    def _attack_verdict(attack):
        try:
            return "leaked" if attack() else "failed"
        except PolicyViolation:
            return "blocked"

    def _admissions_verdicts(self, app):
        return (
            self._attack_verdict(
                lambda: len(app.filter_by_area("x' OR '1'='1")) >= 2),
            self._attack_verdict(
                lambda: len(app.lookup_applicant("0 OR 1=1")) >= 2),
            len(app.search_by_name("Alice")),
        )

    def test_admissions_sql_injection_row(self, tmp_path):
        from repro.apps.admissions import AdmissionsSystem
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        app = AdmissionsSystem(resin.env, use_resin=True)
        app.add_applicant(1, "Alice", "systems", 780, notes="strong accept")
        app.add_applicant(2, "Bob", "theory", 650, notes="confidential")
        before = self._admissions_verdicts(app)
        assert before == ("blocked", "blocked", 1)
        resin.durability.close()

        resin2 = Resin.open(store)
        app2 = AdmissionsSystem(resin2.env, use_resin=True)
        after = self._admissions_verdicts(app2)
        assert after == before
        # The recovered data itself is intact.
        rows = resin2.db.query("SELECT name, notes FROM applicants").rows
        notes = {str(r["name"]): str(r["notes"]) for r in rows}
        assert notes == {"Alice": "strong accept", "Bob": "confidential"}
        resin2.durability.close()

    def _moin_verdicts(self, wiki):
        deface = self._attack_verdict(
            lambda: wiki.overwrite_revision(
                "SecretPlans", 1, "defaced", "mallory") or
            "defaced" in str(
                wiki.env.fs.read_text("/wiki/pages/SecretPlans/00000001")))
        legitimate = "secret plans" in str(
            wiki.view_page("SecretPlans", "alice").body())
        return (deface, legitimate)

    def test_moinmoin_write_acl_row(self, tmp_path):
        from repro.apps.moinmoin import MoinMoin
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        wiki = MoinMoin(resin.env, use_resin=True, use_write_assertion=True)
        wiki.update_body("SecretPlans",
                         "#acl alice:read,write\nthe secret plans", "alice")
        before = self._moin_verdicts(wiki)
        assert before == ("blocked", True)
        resin.durability.close()

        resin2 = Resin.open(store)
        wiki2 = MoinMoin(resin2.env, use_resin=True, use_write_assertion=True)
        after = self._moin_verdicts(wiki2)
        assert after == before
        # Legitimate edits still work on the recovered wiki.
        assert wiki2.update_body(
            "SecretPlans",
            "#acl alice:read,write\nupdated plans", "alice") == 2
        resin2.durability.close()


class TestTolerantRecovery:
    """Records referencing policy/filter classes this deployment does not
    ship must not brick the store: ``tolerant=True`` loads them as
    deny-by-default placeholders."""

    @staticmethod
    def _plant_alien_policy(store):
        """Append a WAL record whose file policy names an unknown class, as
        a newer deployment would have written it."""
        rangemap = json.dumps({
            "length": 5,
            "segments": [[0, 5, [{
                "class": "repro.policies.future.QuantumPolicy",
                "fields": {"level": 9},
            }]]],
        }, sort_keys=True)
        wal = WriteAheadLog(store)
        wal.log({"op": "fs.write", "path": "/alien.txt",
                 "data": b"alien".hex(), "policies": rangemap})
        wal.close()

    def test_unknown_policy_loads_as_placeholder(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        resin.fs.write_text("/ok.txt", "fine")
        resin.durability.close()
        self._plant_alien_policy(store)

        strict = Resin.open(store)
        with pytest.raises(SerializationError):
            strict.fs.read_text("/alien.txt")
        strict.durability.close()

        tolerant = Resin.open(store, tolerant=True)
        data = tolerant.fs.read_text("/alien.txt")
        assert str(data) == "alien"
        placeholders = [p for p in data.policies()
                        if isinstance(p, UnknownPolicy)]
        assert len(placeholders) == 1
        assert placeholders[0].class_name == \
            "repro.policies.future.QuantumPolicy"
        with pytest.raises(PolicyViolation):
            placeholders[0].export_check({"type": "http"})
        tolerant.durability.close()

    def test_unknown_policy_in_sql_cell(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        resin.db.query("CREATE TABLE t (v TEXT)")
        resin.db.query(concat("INSERT INTO t (v) VALUES ('",
                              taint_str("x", UntrustedData("a")), "')"))
        resin.durability.close()
        # Rewrite the stored policy column to name an unknown class.
        wal = WriteAheadLog(store)
        records = list(wal.replay())
        insert = next(r for r in records if r["op"] == "sql.insert")
        cells = dict(zip(insert["columns"], insert["rows"][0]))
        policy_json = cells["__policy_v"].replace(
            "UntrustedData", "VanishedPolicy")
        assert "VanishedPolicy" in policy_json
        wal.log({"op": "sql.update", "table": "t",
                 "columns": ["__policy_v"], "updates": [[0, [policy_json]]]})
        wal.close()

        strict = Resin.open(store)
        with pytest.raises(SerializationError):
            strict.db.query("SELECT v FROM t")
        strict.durability.close()

        tolerant = Resin.open(store, tolerant=True)
        value = tolerant.db.query("SELECT v FROM t").rows[0]["v"]
        assert str(value) == "x"
        assert any(isinstance(p, UnknownPolicy) for p in value.policies())
        tolerant.durability.close()

    def test_unknown_filter_loads_as_deny_all(self, tmp_path, segment_handles):
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        resin.fs.mkdir("/guarded")
        resin.fs.write_text("/guarded/f", "x")
        resin.durability.close()
        wal = WriteAheadLog(store)
        wal.log({"op": "fs.filter", "path": "/guarded",
                 "filter": {"class": "acme.filters.FutureFilter",
                            "fields": {"mode": "strict"}}})
        wal.close()

        with pytest.raises(SerializationError):
            Resin.open(store)
        assert_all_closed(segment_handles)

        tolerant = Resin.open(store, tolerant=True)
        restored = tolerant.fs.get_persistent_filter("/guarded")
        assert isinstance(restored, UnknownFilter)
        # Deny-by-default: an assertion we cannot evaluate fails closed.
        with pytest.raises(PolicyViolation):
            tolerant.fs.write_text("/guarded/f", "y")
        # Reads still work: the unknown filter guards mutations only.
        assert str(tolerant.fs.read_text("/guarded/f")) == "x"
        tolerant.durability.close()

    def test_unknown_record_type(self, tmp_path, segment_handles):
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        resin.fs.write_text("/f", "x")
        resin.durability.close()
        wal = WriteAheadLog(store)
        wal.log({"op": "fs.reflink", "path": "/f", "target": "/g"})
        wal.close()
        with pytest.raises(SerializationError):
            Resin.open(store)
        assert_all_closed(segment_handles)
        tolerant = Resin.open(store, tolerant=True)
        assert str(tolerant.fs.read_text("/f")) == "x"
        tolerant.durability.close()

    def test_unknown_filter_survives_snapshot_roundtrip(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        resin.fs.mkdir("/guarded")
        resin.durability.close()
        wal = WriteAheadLog(store)
        record = {"class": "acme.filters.FutureFilter",
                  "fields": {"mode": "strict"}}
        wal.log({"op": "fs.filter", "path": "/guarded", "filter": record})
        wal.close()

        tolerant = Resin.open(store, tolerant=True)
        # Compacting must re-serialize the placeholder verbatim …
        tolerant.durability.checkpoint()
        tolerant.durability.close()
        # … so a later deployment (or another tolerant one) reads it back.
        again = Resin.open(store, tolerant=True)
        restored = again.fs.raw.get_xattr("/guarded", FILTER_XATTR)
        assert isinstance(restored, UnknownFilter)
        assert restored.record == record
        again.durability.close()


# Records the live mutators refuse to perform, so a valid log never holds
# one; each is planted after a store holding /d/f (a file in a directory).
UNAPPLIABLE_RECORDS = {
    "unlink-missing": {"op": "fs.unlink", "path": "/missing"},
    "unlink-nonempty-dir": {"op": "fs.unlink", "path": "/d"},
    "write-onto-dir": {"op": "fs.write", "path": "/d", "data": b"x".hex(),
                       "policies": None},
    "write-into-missing-dir": {"op": "fs.write", "path": "/missing/f",
                               "data": b"x".hex(), "policies": None},
    "rename-missing": {"op": "fs.rename", "src": "/missing", "dst": "/g"},
    "mkdir-under-file": {"op": "fs.mkdir", "path": "/d/f/sub"},
    "insert-unknown-table": {"op": "sql.insert", "table": "nope",
                             "columns": ["x"], "rows": [[1]]},
}


@pytest.mark.parametrize("tolerant", [False, True],
                         ids=["strict", "tolerant"])
@pytest.mark.parametrize("name", sorted(UNAPPLIABLE_RECORDS))
def test_record_that_cannot_apply_aborts_recovery(tmp_path, name, tolerant):
    store = str(tmp_path / "store")
    resin = Resin.open(store)
    resin.fs.mkdir("/d")
    resin.fs.write_text("/d/f", "x")
    resin.durability.close()
    wal = WriteAheadLog(store)
    wal.log(UNAPPLIABLE_RECORDS[name])
    wal.close()
    with pytest.raises((SerializationError, FileSystemError)):
        Resin.open(store, tolerant=tolerant)


class TestSnapshotIntegrity:
    def test_all_snapshots_corrupt_fails_loudly(self, tmp_path,
                                                segment_handles):
        # Compaction keeps exactly one snapshot and deletes the WAL prefix
        # it covers — if that snapshot rots, there is no state to fall back
        # to, and recovery must refuse to present an empty store as success.
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        resin.db.query("CREATE TABLE t (n INT)")
        resin.db.query("INSERT INTO t (n) VALUES (1)")
        resin.durability.checkpoint()
        resin.durability.close()
        snap = next(n for n in os.listdir(store) if n.endswith(".snap"))
        with open(os.path.join(store, snap), "r+b") as handle:
            handle.seek(12)
            byte = handle.read(1)[0]
            handle.seek(12)
            handle.write(bytes([byte ^ 0xFF]))
        with pytest.raises(RecoveryError):
            Resin.open(store)
        assert_all_closed(segment_handles)

    def test_corrupt_newest_falls_back_to_valid_older(self, tmp_path):
        from repro.storage.snapshot import (
            load_latest_snapshot,
            write_snapshot,
        )
        directory = str(tmp_path / "snaps")
        os.makedirs(directory)
        older = {"version": 2, "wal_start": 2, "records": []}
        newer = {"version": 2, "wal_start": 5, "records": []}
        write_snapshot(directory, older, sync=False)
        path = write_snapshot(directory, newer, sync=False)
        with open(path, "r+b") as handle:
            handle.seek(10)
            handle.write(b"\xff")
        # The WAL segments the newer snapshot would have retired still
        # exist, so falling back to the older one keeps recovery exact.
        assert load_latest_snapshot(directory) == older

    def test_old_format_snapshot_is_refused(self, tmp_path, segment_handles):
        # A version-1 snapshot (a tables/fs state document) is no longer
        # read; recovery must refuse it loudly instead of starting empty.
        from repro.storage.snapshot import write_snapshot
        store = str(tmp_path / "store")
        os.makedirs(store)
        write_snapshot(store, {"version": 1, "wal_start": 1, "tables": [],
                               "fs": []}, sync=False)
        with pytest.raises(RecoveryError):
            Resin.open(store)
        assert_all_closed(segment_handles)

    def test_no_snapshots_means_fresh_store(self, tmp_path):
        from repro.storage.snapshot import load_latest_snapshot
        assert load_latest_snapshot(str(tmp_path)) is None

    def test_snapshot_may_exceed_wal_record_limit(self, tmp_path,
                                                  monkeypatch):
        # Snapshot frames are uncapped: a store whose full image is larger
        # than one WAL record must survive a checkpoint + reopen cycle
        # (each mutation stays under the cap; their sum does not).
        monkeypatch.setattr("repro.storage.framing.MAX_RECORD_BYTES", 2048)
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        resin.db.query("CREATE TABLE t (k TEXT)")
        for i in range(40):
            resin.db.query(f"INSERT INTO t (k) VALUES ('{'v' * 60}-{i}')")
        before = fingerprint(resin)
        resin.durability.checkpoint()
        resin.durability.close()
        snap = next(n for n in os.listdir(store) if n.endswith(".snap"))
        assert os.path.getsize(os.path.join(store, snap)) > 2048
        assert reopen_fingerprint(store) == before

    def test_oversized_mutation_fails_loudly(self, tmp_path, monkeypatch):
        # A single record over the WAL frame cap must raise at write time —
        # never be acknowledged durable and then dropped as a torn tail on
        # replay.
        monkeypatch.setattr("repro.storage.framing.MAX_RECORD_BYTES", 4096)
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        with pytest.raises(SerializationError):
            resin.fs.write_text("/big.txt", "x" * 8192)
        resin.fs.write_text("/small.txt", "ok")
        resin.durability.close()
        resin2 = Resin.open(store)
        assert str(resin2.fs.read_text("/small.txt")) == "ok"
        assert not resin2.fs.exists("/big.txt")
        resin2.durability.close()


class TestShutdown:
    def test_close_drains_inflight_mutations(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        resin.db.query("CREATE TABLE t (n INT)")
        durability = resin.durability
        in_mutation = threading.Event()
        release = threading.Event()
        closed = threading.Event()

        def mutator():
            with durability.mutation():
                in_mutation.set()
                release.wait(5)

        def closer():
            durability.close()
            closed.set()

        t1 = threading.Thread(target=mutator)
        t1.start()
        assert in_mutation.wait(5)
        t2 = threading.Thread(target=closer)
        t2.start()
        # close() must wait for the in-flight mutate-and-log pair …
        assert not closed.wait(0.2)
        release.set()
        assert closed.wait(5)
        t1.join(5)
        t2.join(5)
        # … and detach the sinks before closing the WAL, so later mutations
        # are simply non-durable instead of dying on a closed WAL.
        assert resin.db.engine.durability is None
        assert resin.fs.durability is None
        resin.db.query("INSERT INTO t (n) VALUES (1)")

    def test_close_is_idempotent(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        durability = resin.durability
        durability.close()
        durability.close()


class TestConcurrentDurability:
    def test_concurrent_writers_all_recovered(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        resin.db.query("CREATE TABLE log (worker INT, seq INT)")
        errors = []
        barrier = threading.Barrier(8)

        def worker(wid):
            try:
                barrier.wait()
                for seq in range(10):
                    resin.db.query("INSERT INTO log (worker, seq) "
                                   f"VALUES ({wid}, {seq})")
                    resin.fs.write_text(f"/w{wid}.txt", f"seq {seq}")
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        wal = resin.durability.wal
        # Group commit: concurrent commits share syncs.
        assert wal.records >= 160
        resin.durability.close()

        resin2 = Resin.open(store)
        rows = resin2.db.query("SELECT worker, seq FROM log").rows
        assert {(int(r["worker"]), int(r["seq"])) for r in rows} == {
            (w, s) for w in range(8) for s in range(10)}
        for wid in range(8):
            assert str(resin2.fs.read_text(f"/w{wid}.txt")) == "seq 9"
        resin2.durability.close()

    def test_concurrent_writers_with_checkpoints(self, tmp_path):
        store = str(tmp_path / "store")
        resin = Resin.open(store)
        resin.db.query("CREATE TABLE log (worker INT, seq INT)")
        errors = []
        stop = threading.Event()

        def worker(wid):
            try:
                for seq in range(15):
                    resin.db.query("INSERT INTO log (worker, seq) "
                                   f"VALUES ({wid}, {seq})")
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        def checkpointer():
            while not stop.is_set():
                resin.durability.checkpoint()

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        chk = threading.Thread(target=checkpointer)
        chk.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        chk.join()
        assert not errors
        resin.durability.close()

        resin2 = Resin.open(store)
        rows = resin2.db.query("SELECT worker, seq FROM log").rows
        assert {(int(r["worker"]), int(r["seq"])) for r in rows} == {
            (w, s) for w in range(4) for s in range(15)}
        resin2.durability.close()
