"""Audit ledger: framing, rotation, retention, exact-prefix recovery.

The crash-consistency half reuses the kill-anywhere pattern of
``tests/integration/test_durability_recovery.py``: truncate the final
segment at *every* byte offset, and flip *every* byte of the final record,
asserting the reopened ledger holds an exact prefix of the appended events
and continues the sequence correctly.  Events that cite policy blobs are
cut the same way: between a policy record and the first event citing it,
in a batch after a rotation, and in a write that appends to a segment whose
keys an earlier process defined.
"""

import os

import pytest

from repro.audit import ledger as ledger_module
from repro.audit.ledger import AuditLedger, MemoryLedger
from repro.audit.query import events as query_events, provenance_of
from repro.storage import framing


def _fill(ledger, count, start=0):
    for index in range(start, start + count):
        ledger.append({"kind": "export", "verdict": "allow", "n": index})


def _batch(count, start=0):
    return [
        {"kind": "export", "verdict": "allow", "n": index}
        for index in range(start, start + count)
    ]


def _frame_ends(data):
    """The byte offset where each frame of ``data`` ends."""
    ends, offset = [], 0
    while offset < len(data):
        length, _ = framing.HEADER.unpack_from(data, offset)
        offset += framing.HEADER.size + length
        ends.append(offset)
    return ends


def _raw_records(data):
    records, _ = framing.decode_records(data)
    return records


def _events(directory, **kwargs):
    ledger = AuditLedger(directory, **kwargs)
    try:
        return list(ledger.iter_events())
    finally:
        ledger.close()


#: Policy blobs as the recorder hands them over: one dict per policy,
#: shared by every event that cites it.
BLOBS = [
    {"class": f"app.Policy{n}", "fields": {"owner": f"u{n}@example.org"}}
    for n in range(5)
]


def _citing(count, start=0, blobs=BLOBS):
    """Events citing two of ``blobs`` each, with a provenance chain."""
    return [
        {
            "kind": "export",
            "verdict": "allow",
            "n": index,
            "policies": [blobs[index % len(blobs)], blobs[(index + 1) % len(blobs)]],
            "provenance": [[0, 4, [0]], [4, 9, [0, 1]]],
        }
        for index in range(start, start + count)
    ]


def _without_seq(events):
    return [{k: v for k, v in e.items() if k != "seq"} for e in events]


def _raw(path):
    """The records of the segment file at ``path``, keys unresolved."""
    records, _ = framing.read_segment(path)
    return records


def _assert_self_contained(records):
    """Every key a segment's events cite is defined once, before them."""
    defined = set()
    for record in records:
        if "seq" not in record:
            assert record["key"] not in defined
            defined.add(record["key"])
        else:
            assert all(isinstance(key, int) for key in record["policies"])
            assert set(record["policies"]) <= defined


class TestAppendAndIterate:
    def test_events_round_trip_in_order(self, tmp_path):
        directory = str(tmp_path / "audit")
        with AuditLedger(directory) as ledger:
            _fill(ledger, 10)
        events = _events(directory)
        assert [e["n"] for e in events] == list(range(10))
        assert [e["seq"] for e in events] == list(range(1, 11))

    def test_iter_events_since_seq(self, tmp_path):
        with AuditLedger(str(tmp_path)) as ledger:
            _fill(ledger, 10)
            tail = list(ledger.iter_events(since_seq=7))
        assert [e["seq"] for e in tail] == [8, 9, 10]

    def test_append_on_closed_ledger_raises(self, tmp_path):
        ledger = AuditLedger(str(tmp_path))
        ledger.close()
        with pytest.raises(RuntimeError):
            ledger.append({"kind": "export"})

    def test_seq_continues_after_reopen(self, tmp_path):
        directory = str(tmp_path)
        with AuditLedger(directory) as ledger:
            _fill(ledger, 5)
        with AuditLedger(directory) as ledger:
            assert ledger.next_seq == 6
            _fill(ledger, 2, start=5)
        assert [e["seq"] for e in _events(directory)] == [1, 2, 3, 4, 5, 6, 7]


class TestAppendBatch:
    def test_batch_writes_what_single_appends_write(self, tmp_path):
        single, batched = str(tmp_path / "single"), str(tmp_path / "batched")
        with AuditLedger(single) as ledger:
            _fill(ledger, 10)
        with AuditLedger(batched) as ledger:
            assert ledger.append_batch(_batch(4)) == [1, 2, 3, 4]
            assert ledger.append_batch(_batch(6, start=4)) == list(range(5, 11))
            assert ledger.events_written == 10
        assert _events(batched) == _events(single)
        with open(os.path.join(single, "seg-00000001.audit"), "rb") as handle:
            single_bytes = handle.read()
        with open(os.path.join(batched, "seg-00000001.audit"), "rb") as handle:
            assert handle.read() == single_bytes

    def test_unframeable_event_is_skipped_without_a_seq(self, tmp_path):
        events = _batch(3)
        events[1]["detail"] = {"handle": object()}  # not JSON
        with AuditLedger(str(tmp_path)) as ledger:
            assert ledger.append_batch(events) == [1, 2]
            assert "seq" not in events[1]
            assert ledger.append({"kind": "export", "n": 3}) == 3
        assert [(e["seq"], e["n"]) for e in _events(str(tmp_path))] == [
            (1, 0),
            (2, 2),
            (3, 3),
        ]

    def test_failed_single_append_takes_no_seq(self, tmp_path):
        with AuditLedger(str(tmp_path)) as ledger:
            with pytest.raises(TypeError):
                ledger.append({"kind": "export", "detail": object()})
            assert ledger.append({"kind": "export", "n": 0}) == 1

    def test_rotation_is_checked_once_per_batch(self, tmp_path):
        directory = str(tmp_path)
        with AuditLedger(directory, segment_bytes=256) as ledger:
            ledger.append_batch(_batch(30))
            # The whole batch went into the first segment, past the bound;
            # the check after it sealed that segment.
            assert ledger.segment_ids() == [1, 2]
            ledger.append_batch(_batch(2, start=30))
        first, _ = framing.read_segment(os.path.join(directory, "seg-00000001.audit"))
        assert [e["n"] for e in first] == list(range(30))
        events = _events(directory, segment_bytes=256)
        assert [e["seq"] for e in events] == list(range(1, 33))

    def test_append_batch_on_closed_ledger_raises(self, tmp_path):
        ledger = AuditLedger(str(tmp_path))
        ledger.close()
        with pytest.raises(RuntimeError):
            ledger.append_batch(_batch(1))


class TestPolicyRecords:
    """Each blob is written once per segment; events cite it by key."""

    def test_each_blob_is_written_once_per_segment(self, tmp_path):
        directory = str(tmp_path)
        with AuditLedger(directory) as ledger:
            ledger.append_batch(_citing(3))
            for event in _citing(7, start=3):
                ledger.append(event)
        records = _raw(os.path.join(directory, "seg-00000001.audit"))
        policy_records = [r for r in records if "seq" not in r]
        assert [r["policy"] for r in policy_records] == BLOBS
        assert [r["key"] for r in policy_records] == list(range(len(BLOBS)))
        _assert_self_contained(records)
        events = _events(directory)
        assert _without_seq(events) == _citing(10)
        assert [e["seq"] for e in events] == list(range(1, 11))

    def test_the_appended_event_keeps_its_blobs(self, tmp_path):
        event = _citing(1)[0]
        with AuditLedger(str(tmp_path)) as ledger:
            ledger.append(event)
        assert event["policies"] == [BLOBS[0], BLOBS[1]]
        assert event["policies"][0] is BLOBS[0]
        assert event["seq"] == 1

    def test_rotation_defines_the_blobs_again(self, tmp_path):
        directory = str(tmp_path)
        with AuditLedger(directory, segment_bytes=512, retain_segments=99) as ledger:
            for start in range(0, 30, 3):
                ledger.append_batch(_citing(3, start=start))
            ids = ledger.segment_ids()
        assert len(ids) > 2
        for segment_id in ids:
            name = framing.segment_name(segment_id, ".audit")
            records = _raw(os.path.join(directory, name))
            if records:
                assert "seq" not in records[0]
            _assert_self_contained(records)
        assert _without_seq(_events(directory)) == _citing(30)

    def test_reopen_defines_the_blobs_again_under_new_keys(self, tmp_path):
        directory = str(tmp_path)
        with AuditLedger(directory) as ledger:
            ledger.append_batch(_citing(4))
        with AuditLedger(directory) as ledger:
            ledger.append_batch(_citing(4, start=4))
        records = _raw(os.path.join(directory, "seg-00000001.audit"))
        _assert_self_contained(records)
        keys = [r["key"] for r in records if "seq" not in r]
        assert keys == list(range(len(keys))) and len(keys) > len(BLOBS)
        assert _without_seq(_events(directory)) == _citing(8)

    def test_unframeable_event_defines_no_key(self, tmp_path):
        fresh = {"class": "app.Fresh", "fields": {}}
        events = _citing(3)
        events[1]["policies"] = [fresh]
        events[1]["detail"] = {"handle": object()}  # not JSON
        events[2]["policies"] = [fresh, BLOBS[0]]
        unframeable_blob = {"class": "app.Odd", "fields": {"x": object()}}
        with AuditLedger(str(tmp_path)) as ledger:
            assert ledger.append_batch(events) == [1, 2]
            with pytest.raises(TypeError):
                ledger.append({"kind": "export", "policies": [unframeable_blob]})
            assert ledger.append(_citing(1, start=9)[0]) == 3
        records = _raw(os.path.join(str(tmp_path), "seg-00000001.audit"))
        _assert_self_contained(records)
        stored = _events(str(tmp_path))
        assert [e["n"] for e in stored] == [0, 2, 9]
        assert stored[1]["policies"] == [fresh, BLOBS[0]]

    def test_key_table_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ledger_module, "_KEY_TABLE_LIMIT", 3)
        blobs = [{"class": "app.P", "fields": {"n": n}} for n in range(12)]
        with AuditLedger(str(tmp_path)) as ledger:
            for start in range(0, 24, 2):
                ledger.append_batch(_citing(2, start=start, blobs=blobs))
                assert len(ledger._keys) <= 3 + 4
        records = _raw(os.path.join(str(tmp_path), "seg-00000001.audit"))
        _assert_self_contained(records)
        assert _without_seq(_events(str(tmp_path))) == _citing(24, blobs=blobs)


class TestInlineBlobSegments:
    """A segment whose events carry their blobs inline reads the same."""

    def _write_inline(self, directory, events):
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, "seg-00000001.audit")
        with open(path, "wb") as handle:
            for seq, event in enumerate(events, 1):
                handle.write(framing.encode_record(dict(event, seq=seq)))
        return path

    def test_inline_segment_reads_like_a_keyed_one(self, tmp_path):
        inline, keyed = str(tmp_path / "inline"), str(tmp_path / "keyed")
        self._write_inline(inline, _citing(6))
        with AuditLedger(keyed) as ledger:
            ledger.append_batch(_citing(6))
        assert _events(inline) == _events(keyed)
        with AuditLedger(inline) as old, AuditLedger(keyed) as new:
            for policy in ("Policy1", "app.Policy2"):
                assert list(query_events(old, policy=policy)) == list(
                    query_events(new, policy=policy)
                )
            assert provenance_of(old, "Policy3") == provenance_of(new, "Policy3")

    def test_appending_to_an_inline_segment(self, tmp_path):
        directory = str(tmp_path)
        self._write_inline(directory, _citing(5))
        with AuditLedger(directory) as ledger:
            assert ledger.next_seq == 6
            ledger.append_batch(_citing(5, start=5))
        events = _events(directory)
        assert _without_seq(events) == _citing(10)
        assert [e["seq"] for e in events] == list(range(1, 11))


class TestRotationAndRetention:
    def test_rotates_past_segment_bytes(self, tmp_path):
        directory = str(tmp_path)
        with AuditLedger(directory, segment_bytes=256) as ledger:
            _fill(ledger, 30)
            assert len(ledger.segment_ids()) > 1
        assert [e["n"] for e in _events(directory, segment_bytes=256)] \
            == list(range(30))

    def test_retention_purges_oldest_sealed_segments(self, tmp_path):
        directory = str(tmp_path)
        with AuditLedger(directory, segment_bytes=128,
                         retain_segments=2) as ledger:
            _fill(ledger, 200)
            ids = ledger.segment_ids()
            # active segment + at most retain_segments sealed ones
            assert len(ids) <= 3
            assert ledger.segments_purged > 0
        events = _events(directory, segment_bytes=128)
        # The survivors are the *newest* events, still contiguous.
        numbers = [e["n"] for e in events]
        assert numbers == list(range(numbers[0], 200))
        assert numbers[0] > 0

    def test_every_event_resolves_after_a_purge(self, tmp_path):
        directory = str(tmp_path)
        with AuditLedger(directory, segment_bytes=400, retain_segments=2) as ledger:
            for start in range(0, 90, 3):
                ledger.append_batch(_citing(3, start=start))
            assert ledger.segments_purged > 0
        events = _events(directory)
        first = events[0]["n"]
        assert first > 0
        assert _without_seq(events) == _citing(90 - first, start=first)

    def test_segment_files_use_audit_suffix(self, tmp_path):
        directory = str(tmp_path)
        with AuditLedger(directory) as ledger:
            _fill(ledger, 1)
        names = os.listdir(directory)
        assert names == ["seg-00000001.audit"]
        assert framing.parse_segment_id(names[0], ".audit") == 1


class TestKillAnywhereRecovery:
    """Truncate/corrupt every byte of the final record: the reopened ledger
    must hold an exact event prefix and never a torn or corrupt record."""

    EVENTS = 12

    def _seed(self, tmp_path):
        directory = str(tmp_path / "audit")
        with AuditLedger(directory) as ledger:
            _fill(ledger, self.EVENTS)
        path = os.path.join(directory, "seg-00000001.audit")
        with open(path, "rb") as handle:
            data = handle.read()
        # Offset where the final record's frame begins: decode all-but-one
        # byte — the torn tail ends exactly at the last full frame.
        _, final_start = framing.decode_records(data[:-1])
        return directory, path, data, final_start

    def test_truncate_at_every_offset_recovers_exact_prefix(self, tmp_path):
        directory, path, data, final_start = self._seed(tmp_path)
        for cut in range(final_start, len(data) + 1):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            events = _events(directory)
            expected = self.EVENTS if cut == len(data) else self.EVENTS - 1
            assert [e["n"] for e in events] == list(range(expected)), cut
            # Reopen truncated the tail: the file is clean again.
            with open(path, "rb") as handle:
                after = handle.read()
            _, valid = framing.decode_records(after)
            assert valid == len(after)
            with open(path, "wb") as handle:
                handle.write(data)

    def test_corrupt_every_byte_of_final_record_drops_only_it(self, tmp_path):
        directory, path, data, final_start = self._seed(tmp_path)
        for index in range(final_start, len(data)):
            mutated = bytearray(data)
            mutated[index] ^= 0xFF
            with open(path, "wb") as handle:
                handle.write(bytes(mutated))
            events = _events(directory)
            assert [e["n"] for e in events] == list(range(self.EVENTS - 1)), \
                index
            with open(path, "wb") as handle:
                handle.write(data)

    def test_truncate_anywhere_in_a_batch_recovers_exact_prefix(self, tmp_path):
        """One batch is one write of independent frames: a crash anywhere in
        it leaves the frames before the cut, and reopening continues the
        sequence after them."""
        directory = str(tmp_path / "audit")
        with AuditLedger(directory) as ledger:
            _fill(ledger, 3)
            assert ledger.append_batch(_batch(self.EVENTS - 3, start=3)) == list(
                range(4, self.EVENTS + 1)
            )
        path = os.path.join(directory, "seg-00000001.audit")
        with open(path, "rb") as handle:
            data = handle.read()
        ends = _frame_ends(data)
        assert len(ends) == self.EVENTS and ends[-1] == len(data)
        for cut in range(ends[2], len(data) + 1):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            survivors = sum(1 for end in ends if end <= cut)
            events = _events(directory)
            assert [e["n"] for e in events] == list(range(survivors)), cut
            assert [e["seq"] for e in events] == list(range(1, survivors + 1))
            with AuditLedger(directory) as ledger:
                assert ledger.next_seq == survivors + 1
                ledger.append_batch(_batch(2, start=survivors))
            events = _events(directory)
            assert [e["n"] for e in events] == list(range(survivors + 2)), cut
            assert [e["seq"] for e in events] == list(range(1, survivors + 3))
            with open(path, "wb") as handle:
                handle.write(data)

    def _cut_everywhere(self, directory, path, data, start, appended, expected):
        """Truncate ``path`` at every offset from ``start``: the reopened
        ledger holds the events ``expected(survivors)`` describes, where
        ``survivors`` counts the events of ``appended`` framed before the
        cut, and a reopened ledger appends after them and reads back."""
        ends = [end for end in _frame_ends(data) if end > start]
        event_ends = [
            end
            for end, record in zip(_frame_ends(data), _raw_records(data))
            if "seq" in record and end > start
        ]
        assert ends[-1] == len(data) and len(event_ends) == appended
        files = {}
        for name in os.listdir(directory):
            with open(os.path.join(directory, name), "rb") as handle:
                files[name] = handle.read()
        for cut in range(start, len(data) + 1):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            survivors = sum(1 for end in event_ends if end <= cut)
            events = _events(directory)
            assert _without_seq(events) == expected(survivors), cut
            with AuditLedger(directory) as ledger:
                ledger.append_batch(_citing(2, start=100))
            events = _events(directory)
            assert _without_seq(events) == expected(survivors) + _citing(
                2, start=100
            ), cut
            assert [e["seq"] for e in events] == list(
                range(events[0]["seq"], events[0]["seq"] + len(events))
            )
            _assert_self_contained(_raw(path))
            for name in os.listdir(directory):
                os.unlink(os.path.join(directory, name))
            for name, content in files.items():
                with open(os.path.join(directory, name), "wb") as handle:
                    handle.write(content)

    def test_cut_between_a_policy_record_and_its_first_citation(self, tmp_path):
        directory = str(tmp_path / "audit")
        with AuditLedger(directory) as ledger:
            ledger.append_batch(_citing(2))
            ledger.append_batch(_citing(1, start=2))
        path = os.path.join(directory, "seg-00000001.audit")
        with open(path, "rb") as handle:
            data = handle.read()
        records = _raw_records(data)
        # The final write: a policy record for BLOBS[3], then the event.
        assert records[-2] == {"key": 3, "policy": BLOBS[3]}
        assert records[-1]["policies"] == [2, 3]
        self._cut_everywhere(
            directory,
            path,
            data,
            _frame_ends(data)[-3],
            1,
            lambda survivors: _citing(2 + survivors),
        )

    def test_cut_anywhere_in_a_batch_after_a_rotation(self, tmp_path):
        directory = str(tmp_path / "audit")
        with AuditLedger(directory, segment_bytes=256) as ledger:
            ledger.append_batch(_citing(4))
            assert ledger.segment_ids() == [1, 2]
            ledger.append_batch(_citing(4, start=4))
        path = os.path.join(directory, "seg-00000002.audit")
        with open(path, "rb") as handle:
            data = handle.read()
        assert "seq" not in _raw_records(data)[0]  # the blobs, defined again
        self._cut_everywhere(
            directory,
            path,
            data,
            0,
            4,
            lambda survivors: _citing(4 + survivors),
        )

    def test_cut_in_a_reopened_segment_whose_keys_came_before(self, tmp_path):
        directory = str(tmp_path / "audit")
        with AuditLedger(directory) as ledger:
            ledger.append_batch(_citing(3))
        path = os.path.join(directory, "seg-00000001.audit")
        before = os.path.getsize(path)
        with AuditLedger(directory) as ledger:
            ledger.append_batch(_citing(4, start=3))
        with open(path, "rb") as handle:
            data = handle.read()
        self._cut_everywhere(
            directory,
            path,
            data,
            before,
            4,
            lambda survivors: _citing(3 + survivors),
        )

    def test_sequence_continues_from_surviving_prefix(self, tmp_path):
        directory, path, data, final_start = self._seed(tmp_path)
        with open(path, "wb") as handle:
            handle.write(data[: len(data) - 3])
        with AuditLedger(directory) as ledger:
            assert ledger.next_seq == self.EVENTS  # lost event's seq reused
            ledger.append({"kind": "export", "n": self.EVENTS - 1})
        numbers = [e["n"] for e in _events(directory)]
        assert numbers == list(range(self.EVENTS))


class TestMemoryLedger:
    def test_round_trip_and_seq(self):
        ledger = MemoryLedger()
        _fill(ledger, 5)
        assert [e["seq"] for e in ledger.iter_events()] == [1, 2, 3, 4, 5]
        assert list(ledger.iter_events(since_seq=3)) == \
            [e for e in ledger.iter_events() if e["seq"] > 3]

    def test_append_batch_appends_each_event(self):
        ledger = MemoryLedger()
        events = _batch(3)
        assert ledger.append_batch(events) == [1, 2, 3]
        assert list(ledger.iter_events()) == events

    def test_bounded_retention(self):
        ledger = MemoryLedger(retain_events=10)
        _fill(ledger, 25)
        numbers = [e["n"] for e in ledger.iter_events()]
        assert numbers == list(range(15, 25))
