"""Audit ledger: framing, rotation, retention, exact-prefix recovery.

The crash-consistency half reuses the PR 7 kill-anywhere pattern from
``tests/integration/test_durability_recovery.py``: truncate the final
segment at *every* byte offset, and flip *every* byte of the final record,
asserting the reopened ledger holds an exact prefix of the appended events
and continues the sequence correctly.
"""

import os

import pytest

from repro.audit.ledger import AuditLedger, MemoryLedger
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


def _events(directory, **kwargs):
    ledger = AuditLedger(directory, **kwargs)
    try:
        return list(ledger.iter_events())
    finally:
        ledger.close()


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
