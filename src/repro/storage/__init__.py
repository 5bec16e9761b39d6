"""Durable storage engine: write-ahead log + snapshot compaction.

The subsystem the SQL engine and ResinFS share to make state — and the
policies attached to it — survive restarts (Section 3.4.1 of the paper):

* :mod:`repro.storage.wal` — append-only, length-prefixed + checksummed log
  segments with leader/follower group commit;
* :mod:`repro.storage.snapshot` — full-state snapshot writer/loader using
  the :mod:`repro.core.serialization` codecs, plus the persistent-filter
  codec;
* :mod:`repro.storage.recovery` — replay of the WAL tail over the latest
  snapshot, tolerating a torn final record;
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
    restore_snapshot,
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
    "restore_snapshot",
    "write_snapshot",
    "load_latest_snapshot",
    "serialize_filter",
    "deserialize_filter",
    "replay",
]
