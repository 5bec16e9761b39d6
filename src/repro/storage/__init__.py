"""Durable storage engine: write-ahead log + snapshot compaction.

The subsystem the SQL engine and ResinFS share to make state — and the
policies attached to it — survive restarts (Section 3.4.1 of the paper).
The WAL's records are the store's only on-disk format:

* :mod:`repro.storage.framing` — the checksummed frame codec and segment
  files shared by the WAL, the snapshot files and the audit ledger;
* :mod:`repro.storage.wal` — append-only log segments with leader/follower
  group commit;
* :mod:`repro.storage.snapshot` — a checkpoint writes the whole store as
  WAL records, built by the same record builders the live writers log with;
* :mod:`repro.storage.recovery` — one replay of the latest snapshot's
  records and then the WAL tail, tolerating a torn final record, through
  the same mutators the live writers use;
* :mod:`repro.storage.durability` — the opt-in ``Durability`` service that
  wires it all into an :class:`~repro.environment.Environment`.

The persistent-filter codec lives beside the policy codec, in
:mod:`repro.core.serialization`, and the one durable scope every logged
mutation runs under is :func:`repro.core.locking.durable`.

Entry points: ``Durability.open(env, path)`` or, one level up,
``Resin.open(path)``.
"""

from .durability import SERVICE_NAME, Durability
from .recovery import replay
from .snapshot import build_snapshot, load_latest_snapshot, write_snapshot
from .framing import decode_records, encode_record
from .wal import WriteAheadLog

__all__ = [
    "Durability",
    "SERVICE_NAME",
    "WriteAheadLog",
    "encode_record",
    "decode_records",
    "build_snapshot",
    "write_snapshot",
    "load_latest_snapshot",
    "replay",
]
