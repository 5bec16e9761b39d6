"""Deadlock-free ordered lock registry.

The per-table SQL engine (:class:`repro.sql.engine.Engine`) and the
per-subtree filesystem (:class:`repro.fs.filesystem.FileSystem`) shard one
coarse lock into many named locks the same way: a registry materializes one
reentrant lock per *name* on demand, multi-name critical sections acquire in
sorted-name order, a per-thread stack of held name sets turns an
out-of-order nested acquisition into an immediate error instead of a
deadlock, and a single short-lived *registry lock* (the engine's catalog
lock, the filesystem's dentry lock) guards the directory structure itself
and is always innermost.  :class:`OrderedLockRegistry` is that machinery,
shared; the substrates keep only their naming (tables vs. subtree paths)
and their exception type.

:func:`durable` is the one scope every logged mutation of the durable store
runs under, beside the :class:`SharedExclusiveGate` it enters.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Dict, FrozenSet, Iterator, Optional


class OrderedLockRegistry:
    """One reentrant lock per name, acquired only in sorted-name order.

    ``noun`` names the lock domain in error messages (``"table"``,
    ``"subtree"``); ``error`` is the exception type raised on an ordering
    violation; ``hint`` finishes the violation message with the fix.
    """

    def __init__(self, *, noun: str, error: Callable[[str], Exception], hint: str):
        self._noun = noun
        self._error = error
        self._hint = hint
        #: One reentrant lock per name.  Entries persist for the registry's
        #: lifetime (across DROP/re-CREATE, unlink/re-create), so every
        #: thread agrees on the lock identity for a given name.
        self._locks: Dict[str, threading.RLock] = {}
        #: Guards the owner's directory structure *and* lock
        #: materialization.  Innermost by convention: taken last, held only
        #: across the structural mutation, never while waiting for a named
        #: lock.
        self.registry_lock = threading.RLock()
        #: Per-thread stack of the names each open :meth:`locked` holds —
        #: what lets an ordering violation fail fast.
        self._held = threading.local()

    def lock(self, name: str) -> threading.RLock:
        """The lock for ``name`` (created on demand, identity stable)."""
        lock = self._locks.get(name)
        if lock is None:
            with self.registry_lock:
                lock = self._locks.setdefault(name, threading.RLock())
        return lock

    def held(self) -> FrozenSet[str]:
        """The names the calling thread currently holds via :meth:`locked`."""
        stack = getattr(self._held, "stack", None)
        if not stack:
            return frozenset()
        return frozenset(set().union(*stack))

    @contextlib.contextmanager
    def locked(self, *names: str) -> Iterator[None]:
        """Hold the locks of every name in ``names`` (sorted-name order).

        Acquiring in deterministic order means two callers locking
        overlapping name sets can never deadlock; reentrant per thread.  A
        nested call may only *add* names that sort after every name already
        held (re-acquiring held names is always fine) — a nested
        acquisition that sorts earlier would break the global ordering and
        could deadlock against another thread, so it raises immediately.
        """
        # One name (every SQL statement) needs no dedupe and no sort.
        wanted = names if len(names) < 2 else sorted(set(names))
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        elif stack:
            # Only a thread already inside locked() can break the order.
            held = set().union(*stack)
            fresh = [name for name in wanted if name not in held]
            if fresh and held and min(fresh) < max(held):
                raise self._error(
                    f"lock ordering violation: cannot acquire {self._noun}(s) "
                    f"{fresh!r} while holding {sorted(held)!r}; {self._hint}"
                )
        locks = [self.lock(name) for name in wanted]
        for lock in locks:
            lock.acquire()
        stack.append(wanted)
        try:
            yield
        finally:
            stack.pop()
            for lock in reversed(locks):
                lock.release()


class SharedExclusiveGate:
    """A shared/exclusive gate for rare stop-the-world sections.

    The durability subsystem (:mod:`repro.storage`) uses this to make
    checkpoints atomic with respect to logged mutations: every
    mutate-and-log pair runs under the *shared* side (many at once, cheap),
    while a checkpoint takes the *exclusive* side, waits for in-flight
    pairs to drain, and snapshots a state that matches the log exactly.

    Properties that keep it deadlock-free in this role:

    * the shared side is **reentrant per thread** (a gated region may call
      into another gated region, e.g. the SQL channel's policy-persistence
      sequence wrapping the engine's own mutation);
    * a shared entry only waits while an exclusive section is *running* —
      never for a queued exclusive *waiter*.  The exclusive holder takes no
      other locks (the checkpoint reads plain data structures), so it
      always completes and every blocked shared entry unblocks.  If a
      waiter barred new shared entries instead, a thread that took a
      substrate lock first (``db.transaction``) and the gate second could
      deadlock against a mutator holding the gate and waiting for that
      lock.  The price is that a blocking :meth:`exclusive` can starve
      under a sustained mutation stream — acceptable for checkpoints,
      which are opportunistic anyway.

    :meth:`try_exclusive` is the non-blocking flavour used for
    opportunistic auto-checkpoints: if any shared holder is active it
    returns ``None`` instead of waiting, so it is safe to call from a
    thread that still holds substrate locks.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._shared = 0
        self._shared_waiting = 0
        self._exclusive = False
        self._local = threading.local()

    def shared_depth(self) -> int:
        """The calling thread's shared reentrancy depth (0 = not inside)."""
        return getattr(self._local, "depth", 0)

    @contextlib.contextmanager
    def shared(self) -> Iterator[None]:
        depth = self.shared_depth()
        if depth == 0:
            with self._cond:
                while self._exclusive:
                    self._shared_waiting += 1
                    try:
                        self._cond.wait()
                    finally:
                        self._shared_waiting -= 1
                self._shared += 1
        self._local.depth = depth + 1
        try:
            yield
        finally:
            self._local.depth = depth
            if depth == 0:
                with self._cond:
                    self._shared -= 1
                    if self._shared == 0:
                        self._cond.notify_all()

    @contextlib.contextmanager
    def exclusive(self) -> Iterator[None]:
        if self.shared_depth():
            raise RuntimeError(
                "cannot take the exclusive side of a gate from inside a "
                "shared section (checkpoint called from within a durable "
                "mutation)")
        with self._cond:
            # Yield to mutators blocked by the *previous* exclusive section:
            # without this a back-to-back checkpoint loop could re-acquire
            # before the woken shared waiters get scheduled, starving them.
            while self._exclusive or self._shared or self._shared_waiting:
                self._cond.wait()
            self._exclusive = True
        try:
            yield
        finally:
            with self._cond:
                self._exclusive = False
                self._cond.notify_all()

    def try_exclusive(self) -> Optional[contextlib.AbstractContextManager]:
        """The exclusive side if it is free *right now*, else ``None``.

        Never blocks, so it may be called while holding substrate locks —
        a busy gate just means "skip this opportunity".
        """
        if self.shared_depth():
            return None
        with self._cond:
            if self._exclusive or self._shared:
                return None
            self._exclusive = True

        @contextlib.contextmanager
        def _release():
            try:
                yield
            finally:
                with self._cond:
                    self._exclusive = False
                    self._cond.notify_all()

        return _release()


def durable(sink) -> contextlib.AbstractContextManager:
    """The scope one mutate-and-log sequence runs under.

    With a :class:`repro.storage.durability.Durability` ``sink``, the block
    runs inside ``sink.mutation()`` and ``sink.commit()`` follows it (not
    after a block that raised); a nested scope defers to the outermost
    commit.  Written first, ``with durable(sink), <table or subtree
    locks>:`` takes the gate before the locks and fsyncs after releasing
    them.  Without a sink it is a bare ``nullcontext``.
    """
    if sink is None:
        return contextlib.nullcontext()
    return _gate_then_commit(sink)


@contextlib.contextmanager
def _gate_then_commit(sink) -> Iterator[None]:
    with sink.mutation():
        yield
    sink.commit()
