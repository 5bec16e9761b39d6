"""The opt-in durability service.

``Durability`` owns one WAL + snapshot directory on behalf of one
:class:`~repro.environment.Environment`, and is the single point the SQL
engine and ResinFS talk to:

* every mutate-and-log sequence runs in one
  :func:`~repro.core.locking.durable` scope: under :meth:`mutation` (the
  shared side of a :class:`~repro.core.locking.SharedExclusiveGate`),
  keeping mutations atomic with respect to checkpoints, and followed by
  :meth:`commit`;
* :meth:`log` appends the record, :meth:`commit` group-commits — one fsync
  absorbs every record buffered across the concurrent requests that reached
  their commit point together;
* :meth:`checkpoint` (and the size-triggered opportunistic flavour inside
  :meth:`commit`) takes the exclusive side, drains the log, rotates to a
  fresh segment, writes a snapshot covering everything before it (the
  store as WAL records), and retires the WAL segments + snapshots the new
  snapshot supersedes.

Lifecycle::

    env = Environment()
    store = Durability.open(env, "/var/lib/app")   # recover + attach
    ...                                            # mutations now logged
    store.checkpoint()                             # optional, compacts
    store.close()                                  # flush and release

:meth:`open` is what ``Resin.open(path)`` wraps: load the newest valid
snapshot, replay the WAL tail (tolerating a torn final record), then attach
so subsequent mutations are logged.  Exactly one ``Durability`` may be open
on a directory at a time — it appends to the live segment.

Deadlock-freedom argument (the properties the gate relies on): mutators
acquire the gate *before* any table/subtree lock, the exclusive side takes
**no** substrate locks (the snapshot builder reads the table dicts and the
inode tree directly, which is safe precisely because every mutation is
excluded by the gate), and a queued exclusive waiter never blocks new
shared entries.  The opportunistic checkpoint uses the non-blocking
``try_exclusive`` and simply skips when the store is busy.
"""

from __future__ import annotations

import itertools
import os
from typing import Any, Dict, Optional

from ..core.locking import SharedExclusiveGate
from ..fs.filesystem import Inode
from .recovery import replay
from .snapshot import (
    build_snapshot,
    load_latest_snapshot,
    retire_snapshots_except,
    write_snapshot,
)
from .wal import WriteAheadLog

__all__ = ["Durability", "SERVICE_NAME"]

#: The name ``Durability`` registers itself under on ``env.services``.
SERVICE_NAME = "storage.durability"

#: Default auto-checkpoint threshold: once the live WAL segment exceeds this
#: many bytes, the next commit opportunistically compacts.
DEFAULT_CHECKPOINT_BYTES = 4 * 1024 * 1024


class Durability:
    """Write-ahead logging + snapshot compaction for one environment."""

    def __init__(
        self,
        directory: str,
        *,
        sync: str = "fsync",
        checkpoint_bytes: Optional[int] = DEFAULT_CHECKPOINT_BYTES,
        tolerant: bool = False,
    ):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.tolerant = tolerant
        self.checkpoint_bytes = checkpoint_bytes
        self.gate = SharedExclusiveGate()
        self.wal = WriteAheadLog(directory, sync=sync)
        self.env = None
        self.engine = None
        self.fs = None
        #: Checkpoints taken (explicit + opportunistic) — observability.
        self.checkpoints = 0

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def open(
        cls,
        env,
        directory: str,
        *,
        sync: str = "fsync",
        checkpoint_bytes: Optional[int] = DEFAULT_CHECKPOINT_BYTES,
        tolerant: bool = False,
    ) -> "Durability":
        """Open (or create) the store at ``directory`` for ``env``:
        recover its state, then attach so new mutations are logged.  A
        recovery that fails closes the WAL it opened and re-raises."""
        store = cls(
            directory,
            sync=sync,
            checkpoint_bytes=checkpoint_bytes,
            tolerant=tolerant,
        )
        try:
            store.recover(env)
        except BaseException:
            store.wal.close()
            raise
        store.attach(env)
        return store

    def recover(self, env) -> int:
        """Rebuild ``env``'s tables and filesystem from snapshot + WAL tail;
        returns the number of records replayed (the snapshot's included).

        Must run before :meth:`attach` (replay applies physical effects
        directly and must not re-log), on an environment nothing else is
        using yet.
        """
        engine = env.db.engine
        raw = env.fs.raw
        records = self.wal.replay()
        doc = load_latest_snapshot(self.directory)
        if doc is not None:
            # The snapshot's records rebuild the whole store from empty.
            engine.tables.clear()
            raw.root = Inode("dir", "/")
            tail = self.wal.replay(doc["wal_start"])
            records = itertools.chain(doc["records"], tail)
        return replay(records, engine, raw, tolerant=self.tolerant)

    def attach(self, env) -> None:
        """Start logging ``env``'s mutations through this store."""
        self.env = env
        self.engine = env.db.engine
        self.fs = env.fs
        self.engine.durability = self
        self.fs.durability = self
        if self.tolerant:
            self.fs.tolerant_policies = True
            env.db.tolerant_policies = True
        env.services.register(SERVICE_NAME, self)

    def close(self) -> None:
        """Flush everything and release the store (no final checkpoint —
        recovery replays the tail on the next open).

        Takes the exclusive gate so every in-flight mutate-and-log pair
        drains first, and detaches the engine/fs durability pointers
        *before* closing the WAL: a mutation racing with shutdown either
        fully logs (and the close's final flush makes it durable) or sees
        no sink at all — it can never apply its in-memory effect and then
        blow up on ``append() on a closed WAL`` with the record unlogged.
        """
        with self.gate.exclusive():
            if self.engine is not None and self.engine.durability is self:
                self.engine.durability = None
            if self.fs is not None and self.fs.durability is self:
                self.fs.durability = None
            if self.env is not None and self.env.services.get(SERVICE_NAME) is self:
                self.env.services.unregister(SERVICE_NAME)
            self.wal.close()

    def __enter__(self) -> "Durability":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- the mutation protocol ------------------------------------------------

    def mutation(self):
        """The gate a mutate-and-log sequence runs under (reentrant); see
        :func:`repro.core.locking.durable`, which also commits after it."""
        return self.gate.shared()

    def log(self, record: Dict[str, Any]) -> int:
        """Append one record (buffered; durable after :meth:`commit`)."""
        return self.wal.append(record)

    def commit(self) -> None:
        """Make everything appended so far durable, then opportunistically
        checkpoint if the live segment has grown past the threshold.

        Call *after* leaving the :meth:`mutation` scope.  Inside a still-open
        enclosing mutation (``gate.shared_depth() > 0``) this is a no-op —
        the outermost layer commits once, which is what lets one fsync
        absorb a whole compound operation.
        """
        if self.gate.shared_depth():
            return
        self.wal.commit()
        if (
            self.checkpoint_bytes
            and self.wal.size >= self.checkpoint_bytes
        ):
            handle = self.gate.try_exclusive()
            if handle is not None:
                with handle:
                    self._checkpoint_exclusive()

    # -- checkpoint / compaction ----------------------------------------------

    def checkpoint(self) -> int:
        """Write a snapshot of the current state and retire the log it
        covers; returns the new ``wal_start`` segment id.  Blocks until
        in-flight mutations drain."""
        with self.gate.exclusive():
            return self._checkpoint_exclusive()

    def _checkpoint_exclusive(self) -> int:
        # Order matters: drain the log, rotate so the snapshot's covered
        # prefix is exactly the sealed segments, write the snapshot durably,
        # and only then retire what it supersedes.  A crash between any two
        # steps is safe: before the snapshot lands, recovery uses the
        # previous snapshot and the still-present segments; after it lands,
        # recovery starts at the new wal_start and the stale segments are
        # merely unreclaimed space until the next checkpoint.
        self.wal.commit()
        wal_start = self.wal.rotate()
        doc = build_snapshot(self.engine, self.fs.raw, wal_start)
        write_snapshot(self.directory, doc, sync=self.wal.sync == "fsync")
        self.wal.retire_before(wal_start)
        retire_snapshots_except(self.directory, wal_start)
        self.checkpoints += 1
        return wal_start
