"""Durable storage engine: write-ahead log + snapshot compaction.

The subsystem the SQL engine and ResinFS share to make state — and the
policies attached to it — survive restarts (Section 3.4.1 of the paper).
The WAL's records are the store's only on-disk format:

* :mod:`repro.storage.framing` — the checksummed frame codec and segment
  files shared by the WAL, the snapshot files and the audit ledger;
* :mod:`repro.storage.wal` — append-only log segments with leader/follower
  group commit;
* :mod:`repro.storage.snapshot` — a checkpoint writes the whole store as
  WAL records; plus the persistent-filter codec;
* :mod:`repro.storage.recovery` — one replay of the latest snapshot's
  records and then the WAL tail, tolerating a torn final record;
* :mod:`repro.storage.durability` — the opt-in ``Durability`` service that
  wires it all into an :class:`~repro.environment.Environment`.

Entry points: ``Durability.open(env, path)`` or, one level up,
``Resin.open(path)``.
"""

from .durability import SERVICE_NAME, Durability
from .recovery import replay
from .snapshot import (
    UnknownFilter,
    build_snapshot,
    deserialize_filter,
    load_latest_snapshot,
    serialize_filter,
    write_snapshot,
)
from .framing import decode_records, encode_record
from .wal import WriteAheadLog

__all__ = [
    "Durability",
    "SERVICE_NAME",
    "WriteAheadLog",
    "UnknownFilter",
    "encode_record",
    "decode_records",
    "build_snapshot",
    "write_snapshot",
    "load_latest_snapshot",
    "serialize_filter",
    "deserialize_filter",
    "replay",
]
