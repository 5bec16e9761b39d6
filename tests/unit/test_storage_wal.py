"""Unit tests for the write-ahead log and the checkpoint gate.

Covers the frame codec (length + checksum, torn-tail semantics), the
leader/follower group commit, segment rotation/retirement, and the
shared/exclusive gate the durability service builds checkpoints on.
"""

import os
import threading
import time

import pytest

from repro.core.exceptions import SerializationError
from repro.core.locking import SharedExclusiveGate
from repro.storage.framing import (
    decode_records,
    decode_value,
    encode_record,
    encode_value,
)
from repro.storage.wal import WriteAheadLog


class TestFrameCodec:
    def test_roundtrip(self):
        records = [{"op": "a", "n": 1}, {"op": "b", "s": "x"}]
        data = b"".join(encode_record(r) for r in records)
        decoded, valid = decode_records(data)
        assert decoded == records
        assert valid == len(data)

    def test_empty_buffer(self):
        assert decode_records(b"") == ([], 0)

    def test_torn_tail_yields_prefix(self):
        first = encode_record({"op": "a"})
        second = encode_record({"op": "b"})
        blob = first + second
        # Truncating anywhere inside the second frame must decode exactly
        # the first record and report the prefix boundary.
        for cut in range(len(first) + 1, len(blob)):
            decoded, valid = decode_records(blob[:cut])
            assert decoded == [{"op": "a"}]
            assert valid == len(first)

    def test_corrupt_byte_stops_decode(self):
        first = encode_record({"op": "a"})
        second = encode_record({"op": "b"})
        blob = bytearray(first + second)
        for index in range(len(first), len(blob)):
            corrupted = bytearray(blob)
            corrupted[index] ^= 0xFF
            decoded, valid = decode_records(bytes(corrupted))
            assert decoded == [{"op": "a"}]
            assert valid == len(first)

    def test_implausible_length_stops_decode(self):
        first = encode_record({"op": "a"})
        bogus = (1 << 31).to_bytes(4, "big") + b"\x00" * 10
        decoded, valid = decode_records(first + bogus)
        assert decoded == [{"op": "a"}]
        assert valid == len(first)

    def test_value_codec_bytes(self):
        assert decode_value(encode_value(b"\x00\xff")) == b"\x00\xff"
        assert encode_value("plain") == "plain"
        assert encode_value(None) is None


class TestRecordSizeLimit:
    """The frame limit must be symmetric: anything the writer accepts, the
    reader accepts — an encode-side cap prevents acknowledged-durable
    records that replay would silently drop as corrupt length prefixes."""

    def test_encode_over_limit_raises(self):
        with pytest.raises(SerializationError):
            encode_record({"op": "big", "data": "x" * 100}, max_bytes=50)

    def test_boundary_record_roundtrips(self):
        record = {"op": "edge", "data": "x" * 40}
        limit = len(encode_record(record, max_bytes=None)) - 8
        frame = encode_record(record, max_bytes=limit)
        decoded, valid = decode_records(frame, max_record_bytes=limit)
        assert decoded == [record]
        assert valid == len(frame)

    def test_uncapped_mode_for_snapshot_frames(self, monkeypatch):
        monkeypatch.setattr("repro.storage.framing.MAX_RECORD_BYTES", 64)
        doc = {"op": "snapshot", "data": "x" * 500}
        frame = encode_record(doc, max_bytes=None)
        decoded, valid = decode_records(frame, max_record_bytes=None)
        assert decoded == [doc]
        assert valid == len(frame)
        # The default (WAL) path enforces the cap on both sides.
        with pytest.raises(SerializationError):
            encode_record(doc)
        assert decode_records(frame) == ([], 0)

    def test_append_rejects_oversized_record(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.storage.framing.MAX_RECORD_BYTES", 64)
        wal = WriteAheadLog(str(tmp_path))
        wal.log({"op": "small"})
        with pytest.raises(SerializationError):
            wal.append({"op": "big", "data": "x" * 200})
        # The oversized record was rejected before buffering: the log stays
        # healthy and every accepted record replays.
        wal.log({"op": "small2"})
        wal.close()
        wal2 = WriteAheadLog(str(tmp_path))
        assert list(wal2.replay()) == [{"op": "small"}, {"op": "small2"}]
        wal2.close()


class TestWriteAheadLog:
    def test_log_and_replay(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.log({"op": "one"})
        wal.log({"op": "two"})
        wal.close()
        wal2 = WriteAheadLog(str(tmp_path))
        assert list(wal2.replay()) == [{"op": "one"}, {"op": "two"}]
        wal2.close()

    def test_append_alone_is_not_durable(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append({"op": "buffered"})
        # A crash before commit loses the buffered record: nothing was
        # written to the segment file yet.
        path = wal.segment_path(wal.segment_ids()[0])
        assert os.path.getsize(path) == 0
        wal.commit()
        assert os.path.getsize(path) > 0
        wal.close()

    def test_group_commit_batches_syncs(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        lsns = [wal.append({"op": "r", "i": i}) for i in range(10)]
        wal.commit(lsns[-1])
        assert wal.records == 10
        assert wal.syncs == 1
        assert list(wal.replay()) == [{"op": "r", "i": i} for i in range(10)]
        wal.close()

    def test_concurrent_commit_all_durable(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        barrier = threading.Barrier(8)
        errors = []

        def writer(i):
            try:
                barrier.wait()
                for j in range(5):
                    wal.log({"op": "w", "i": i, "j": j})
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert wal.records == 40
        assert wal.syncs <= wal.records
        replayed = list(wal.replay())
        assert len(replayed) == 40
        assert {(r["i"], r["j"]) for r in replayed} == {
            (i, j) for i in range(8) for j in range(5)}
        wal.close()

    def test_rotate_requires_drained_log(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append({"op": "pending"})
        with pytest.raises(RuntimeError):
            wal.rotate()
        wal.commit()
        new_id = wal.rotate()
        assert wal.segment_ids() == [1, new_id]
        wal.close()

    def test_retire_before_removes_segments(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.log({"op": "old"})
        new_id = wal.rotate()
        wal.log({"op": "new"})
        removed = wal.retire_before(new_id)
        assert removed == [1]
        assert wal.segment_ids() == [new_id]
        assert list(wal.replay()) == [{"op": "new"}]
        wal.close()

    def test_replay_from_start_segment(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.log({"op": "old"})
        new_id = wal.rotate()
        wal.log({"op": "new"})
        assert list(wal.replay(new_id)) == [{"op": "new"}]
        assert list(wal.replay()) == [{"op": "old"}, {"op": "new"}]
        wal.close()

    def test_open_truncates_torn_tail(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.log({"op": "kept"})
        path = wal.segment_path(wal.segment_ids()[-1])
        wal.close()
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00\x00\x0cgarbage!")
        wal2 = WriteAheadLog(str(tmp_path))
        assert list(wal2.replay()) == [{"op": "kept"}]
        wal2.log({"op": "after"})
        wal2.close()
        wal3 = WriteAheadLog(str(tmp_path))
        assert list(wal3.replay()) == [{"op": "kept"}, {"op": "after"}]
        wal3.close()

    def test_unknown_sync_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(str(tmp_path), sync="maybe")

    def test_write_failure_poisons_log(self, tmp_path, monkeypatch):
        wal = WriteAheadLog(str(tmp_path))
        wal.log({"op": "good"})
        lsn = wal.append({"op": "doomed"})

        def boom(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", boom)
        with pytest.raises(OSError):
            wal.commit(lsn)
        monkeypatch.undo()
        # The failed batch was consumed without a sync barrier, so no later
        # commit may ever acknowledge it (or anything after it) as durable.
        with pytest.raises(RuntimeError):
            wal.commit(lsn)
        with pytest.raises(RuntimeError):
            wal.append({"op": "after"})
        with pytest.raises(RuntimeError):
            wal.rotate()
        # Records synced *before* the failure stay acknowledged.
        wal.commit(1)
        with pytest.raises(RuntimeError):
            wal.close()

    def test_follower_sees_leader_write_failure(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        in_write = threading.Event()
        release = threading.Event()

        def failing_write(frames):
            in_write.set()
            release.wait(5)
            raise OSError("disk gone")

        wal._write_frames = failing_write
        lsn1 = wal.append({"op": "a"})
        results = {}

        def committer(name, lsn):
            try:
                wal.commit(lsn)
                results[name] = None
            except Exception as exc:
                results[name] = exc

        leader = threading.Thread(target=committer, args=("leader", lsn1))
        leader.start()
        assert in_write.wait(5)
        lsn2 = wal.append({"op": "b"})
        follower = threading.Thread(target=committer, args=("follower", lsn2))
        follower.start()
        time.sleep(0.05)  # let the follower reach its wait
        release.set()
        leader.join(5)
        follower.join(5)
        # The leader surfaces the I/O error; the follower must NOT return
        # success for a record that never reached the disk.
        assert isinstance(results["leader"], OSError)
        assert isinstance(results["follower"], RuntimeError)
        with pytest.raises(RuntimeError):
            wal.close()

    def test_size_tracks_written_and_pending(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        assert wal.size == 0
        wal.append({"op": "a"})
        pending = wal.size
        assert pending > 0
        wal.commit()
        assert wal.size >= pending
        wal.close()


class TestSharedExclusiveGate:
    def test_shared_is_reentrant(self):
        gate = SharedExclusiveGate()
        with gate.shared():
            assert gate.shared_depth() == 1
            with gate.shared():
                assert gate.shared_depth() == 2
            assert gate.shared_depth() == 1
        assert gate.shared_depth() == 0

    def test_try_exclusive_fails_under_shared(self):
        gate = SharedExclusiveGate()
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with gate.shared():
                entered.set()
                release.wait(5)

        t = threading.Thread(target=holder)
        t.start()
        assert entered.wait(5)
        assert gate.try_exclusive() is None
        release.set()
        t.join()
        ctx = gate.try_exclusive()
        assert ctx is not None
        with ctx:
            assert gate.try_exclusive() is None

    def test_exclusive_blocks_shared_entries(self):
        gate = SharedExclusiveGate()
        order = []
        in_exclusive = threading.Event()
        release = threading.Event()

        def checkpointer():
            with gate.exclusive():
                order.append("exclusive-start")
                in_exclusive.set()
                release.wait(5)
                order.append("exclusive-end")

        def mutator():
            in_exclusive.wait(5)
            with gate.shared():
                order.append("shared")

        t1 = threading.Thread(target=checkpointer)
        t2 = threading.Thread(target=mutator)
        t1.start()
        t2.start()
        assert in_exclusive.wait(5)
        release.set()
        t1.join(5)
        t2.join(5)
        assert order == ["exclusive-start", "exclusive-end", "shared"]

    def test_exclusive_waits_for_shared_drain(self):
        gate = SharedExclusiveGate()
        order = []
        in_shared = threading.Event()
        release = threading.Event()

        def mutator():
            with gate.shared():
                in_shared.set()
                release.wait(5)
                order.append("shared-end")

        def checkpointer():
            in_shared.wait(5)
            with gate.exclusive():
                order.append("exclusive")

        t1 = threading.Thread(target=mutator)
        t2 = threading.Thread(target=checkpointer)
        t1.start()
        t2.start()
        assert in_shared.wait(5)
        release.set()
        t1.join(5)
        t2.join(5)
        assert order == ["shared-end", "exclusive"]

    def test_shared_does_not_wait_for_queued_exclusive(self):
        # Deadlock-freedom property: a queued exclusive waiter must not bar
        # new shared entries (a barred mutator may hold a substrate lock the
        # current shared holder is waiting for).
        gate = SharedExclusiveGate()
        in_shared = threading.Event()
        release = threading.Event()
        second_done = threading.Event()

        def holder():
            with gate.shared():
                in_shared.set()
                release.wait(5)

        def waiter():
            in_shared.wait(5)
            with gate.exclusive():
                pass

        t1 = threading.Thread(target=holder)
        t2 = threading.Thread(target=waiter)
        t1.start()
        t2.start()
        assert in_shared.wait(5)

        def barger():
            with gate.shared():
                second_done.set()

        t3 = threading.Thread(target=barger)
        t3.start()
        # The barger must get through while the exclusive waiter queues.
        assert second_done.wait(5)
        release.set()
        t1.join(5)
        t2.join(5)
        t3.join(5)
