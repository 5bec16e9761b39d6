"""The audit recorder service: decision capture off the hot path.

:class:`AuditRecorder` is an opt-in service on ``Environment.services``
(name :data:`SERVICE_NAME`), and it observes only the environment it is
registered on: :func:`recorder_for` finds it there or returns ``None``.
Instrumented boundaries — export checks
(:func:`~repro.core.filter.check_export`, which default filters and
application-defined filters run), ``resin.declassify()``, filesystem
xattr-policy denials, ``TaintedStr.__format__`` policy drops — call
:meth:`record` with the raw decision; everything expensive (policy and
range-map serialization, framing, disk I/O) happens on a single background
writer thread, so the calling thread pays only a queue append.  The
*process* still pays for the writer: under the GIL its CPU time is taken
from the request threads, and on a single core it lands in request
latency (on the socket benchmark's review-submit workload on a 2-vCPU
Xeon VM, ~220 µs of writer CPU per request against a ~1.2 ms p50;
``docs/API.md`` has the split).  So the writer keeps its cost per event
small:

* **One serialization per distinct policy.**  A bounded memo, touched only
  by the writer thread, maps each policy value (class plus fields, the
  ``Policy`` hash and equality) to its blob and content key.  Equal
  policies share the blob of the first one serialized, also where their
  fields differ in a type that equality ignores (a list and a tuple, 1 and
  ``True``).  Events share those blob dicts; ledger readers must treat
  them as read-only.  Unhashable or non-``Policy`` objects are serialized
  per event.
* **One write and one sync per drained batch**
  (:meth:`~repro.audit.ledger.AuditLedger.append_batch`).  An event that
  fails to build or frame is counted in ``record_errors``; the rest of its
  batch still lands, in order.

Two invariants the instrumentation relies on:

* **Recording never changes a verdict.**  Hooks observe a decision and
  re-raise violations unchanged, and :meth:`record` swallows every
  exception (counted in ``record_errors``) — an audit failure must never
  fail a request.
* **Bounded memory.**  The queue holds at most ``queue_limit`` pending
  events; under pressure the *oldest* pending event is dropped and
  ``dropped_events`` incremented.  Audit is forensic observability, not a
  transaction log — losing the oldest unwritten event under overload beats
  blocking a request.

Request attribution is captured on the *caller's* thread (the writer
thread has no access to the caller's contextvars): request id, principal
and route come from :func:`~repro.core.request_context.current_request`
and the filter context at call time.  Range maps and policy objects are
immutable once built, so their serialization can safely run later on the
writer thread.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..core.policy import Policy
from ..core.request_context import current_request
from ..core.serialization import serialize_policy
from ..core.services import AUDIT_SERVICE as SERVICE_NAME, recorder_for
from .ledger import AuditLedger, MemoryLedger

__all__ = [
    "SERVICE_NAME",
    "AuditRecorder",
    "recorder_for",
]

#: Provenance chains are *compact* by contract: at most this many tainted
#: segments per event (a page render's rangemap can hold hundreds).  Events
#: whose chain was cut carry ``provenance_truncated`` with the full count.
MAX_PROVENANCE_SEGMENTS = 64

#: Bound on the writer's policy memo (cleared, not evicted, when full).  A
#: deployment's distinct policies grow with its data: HotCRP has one per
#: user and three per paper, 802 on the socket benchmark's review-submit
#: site (200 users, 200 papers), where every lookup while serving hits and
#: the memo retains ~1.5 MB.  Past the bound each clear refills it: with
#: 1202 distinct policies 98% of lookups hit, with 2402, 84%.
_POLICY_MEMO_LIMIT = 1024


def _context_field(context: Any, key: str) -> Any:
    if context is None:
        return None
    getter = getattr(context, "get", None)
    if callable(getter):
        try:
            return getter(key)
        except Exception:
            return None
    return getattr(context, key, None)


class AuditRecorder:
    """Bounded-queue, background-writer recorder over an audit ledger."""

    def __init__(self, ledger: Optional[Any] = None, *, queue_limit: int = 4096):
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.ledger = ledger if ledger is not None else MemoryLedger()
        self.queue_limit = queue_limit
        self.env: Optional[Any] = None

        self._cond = threading.Condition()
        self._queue: Deque[Dict[str, Any]] = deque()
        self._busy = False
        # Policy value -> (blob, content key); the writer thread's alone.
        self._policy_memo: Dict[Any, Tuple[Dict[str, Any], str]] = {}
        self._closed = False
        #: Pending events dropped (oldest-first) because the queue was full.
        self.dropped_events = 0
        #: record()/serialization failures swallowed (audit must not raise).
        self.record_errors = 0
        #: Events durably handed to the ledger.
        self.events_recorded = 0

        self._writer = threading.Thread(
            target=self._writer_loop, name="resin-audit-writer", daemon=True
        )
        self._writer.start()

    # -- lifecycle (the Durability service shape) ----------------------------

    @classmethod
    def open(cls, env: Any, directory: str, **ledger_kwargs: Any) -> "AuditRecorder":
        """Open (or recover) the ledger in ``directory``, attach to ``env``."""
        recorder = cls(AuditLedger(directory, **ledger_kwargs))
        recorder.attach(env)
        return recorder

    def attach(self, env: Any) -> "AuditRecorder":
        env.services.register(SERVICE_NAME, self)
        self.env = env
        return self

    def close(self) -> None:
        """Drain the queue, stop the writer, close the ledger, detach."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._writer.join(timeout=10)
        try:
            if self.env is not None and self.env.services.get(SERVICE_NAME) is self:
                self.env.services.unregister(SERVICE_NAME)
        finally:
            self.env = None
            self.ledger.close()

    # -- capture (hot path) --------------------------------------------------

    def record(
        self,
        kind: str,
        *,
        verdict: Optional[str] = None,
        context: Any = None,
        policies: Any = None,
        rangemap: Any = None,
        violation: Optional[BaseException] = None,
        channel: Optional[str] = None,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Capture one decision.  Cheap (one queue append) and non-raising.

        ``policies``/``rangemap`` are captured by reference — both are
        immutable value objects — and serialized on the writer thread.
        Request attribution is resolved here, on the caller's thread.
        """
        try:
            rctx = current_request()
            entry: Dict[str, Any] = {
                "ts": time.time(),
                "kind": kind,
                "verdict": verdict,
                "request": None,
                "principal": _context_field(context, "user"),
                "route": None,
                "channel": (
                    channel if channel is not None else _context_field(context, "type")
                ),
                "_policies": policies,
                "_rangemap": rangemap,
            }
            where = None
            for key in ("path", "addr", "recipient", "table"):
                value = _context_field(context, key)
                if value is not None:
                    where = str(value)
                    break
            if where is not None:
                entry["where"] = where
            if rctx is not None:
                entry["request"] = getattr(rctx, "request_id", None)
                if entry["principal"] is None:
                    entry["principal"] = rctx.user
                entry["route"] = rctx.route or (
                    getattr(rctx.request, "path", None)
                    if rctx.request is not None
                    else None
                )
            if violation is not None:
                entry["violation"] = {
                    "type": type(violation).__name__,
                    "message": str(violation),
                }
            if detail:
                entry["detail"] = detail
            with self._cond:
                if self._closed:
                    return
                if len(self._queue) >= self.queue_limit:
                    self._queue.popleft()
                    self.dropped_events += 1
                self._queue.append(entry)
                self._cond.notify()
        except Exception:
            self.record_errors += 1

    # -- writer thread -------------------------------------------------------

    def _writer_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue and self._closed:
                    return
                batch, self._queue = self._queue, deque()
                self._busy = True
            try:
                self._write_batch(batch)
            finally:
                with self._cond:
                    self._busy = False
                    self._cond.notify_all()

    def _write_batch(self, batch: Deque[Dict[str, Any]]) -> None:
        """Build every captured entry and hand the events to the ledger at
        once; a failure costs only its own event."""
        events: List[Dict[str, Any]] = []
        for entry in batch:
            try:
                events.append(self._build_event(entry))
            except Exception:
                self.record_errors += 1
        if not events:
            return
        try:
            written = len(self.ledger.append_batch(events))
        except Exception:
            written = 0
        self.events_recorded += written
        self.record_errors += len(events) - written

    def _serialized(self, policy: Any) -> Tuple[Dict[str, Any], str]:
        """``policy``'s blob and content key, once per distinct policy.

        Only a hashable ``Policy`` that serializes is memoized; anything
        else (an unhashable policy, the ``repr`` fallback) is serialized
        again on every call.  A policy equal to a memoized one gets that
        one's blob, even if its fields differ in a type ``Policy`` equality
        ignores.
        """
        memoize = isinstance(policy, Policy)
        if memoize:
            try:
                cached = self._policy_memo.get(policy)
            except TypeError:
                memoize = False
            else:
                if cached is not None:
                    return cached
        try:
            blob = serialize_policy(policy)
        except Exception:
            memoize = False
            blob = {
                "class": type(policy).__name__,
                "fields": None,
                "repr": repr(policy),
            }
        key = repr(sorted(blob.items(), key=lambda kv: kv[0]))
        if memoize:
            if len(self._policy_memo) >= _POLICY_MEMO_LIMIT:
                self._policy_memo.clear()
            self._policy_memo[policy] = (blob, key)
        return blob, key

    def _build_event(self, entry: Dict[str, Any]) -> Dict[str, Any]:
        """Serialize the captured references into the JSON event."""
        policies = entry.pop("_policies", None)
        rangemap = entry.pop("_rangemap", None)
        blobs: List[Dict[str, Any]] = []
        index_of: Dict[str, int] = {}
        # Policies are interned value objects: the same instance recurs
        # across segments, so an identity memo skips even the policy memo;
        # the content key still dedupes distinct equal instances.
        id_memo: Dict[int, int] = {}

        def blob_index(policy: Any) -> int:
            index = id_memo.get(id(policy))
            if index is not None:
                return index
            blob, key = self._serialized(policy)
            index = index_of.get(key)
            if index is None:
                index = index_of[key] = len(blobs)
                blobs.append(blob)
            id_memo[id(policy)] = index
            return index

        if policies is not None:
            for policy in policies:
                blob_index(policy)
        provenance: List[List[Any]] = []
        tainted_segments = 0
        if rangemap is not None:
            try:
                segments = rangemap.to_segments()
            except Exception:
                segments = []
                self.record_errors += 1
            for start, stop, segment_policies in segments:
                if not segment_policies:
                    continue
                tainted_segments += 1
                if tainted_segments <= MAX_PROVENANCE_SEGMENTS:
                    provenance.append(
                        [start, stop, sorted(blob_index(p) for p in segment_policies)]
                    )
        entry["policies"] = blobs
        if provenance:
            entry["provenance"] = provenance
            if tainted_segments > len(provenance):
                entry["provenance_truncated"] = tainted_segments
        return entry

    # -- draining / queries ---------------------------------------------------

    def flush(self) -> None:
        """Block until every event captured so far is in the ledger."""
        with self._cond:
            while self._queue or self._busy:
                self._cond.notify_all()  # wake the writer if it missed one
                self._cond.wait(timeout=0.05)
        self.ledger.flush()

    def events(self, **filters: Any):
        """Stream recorded events, filtered — see :func:`repro.audit.query.events`.

        Flushes first so the view includes everything captured so far.
        """
        from .query import events as query_events
        self.flush()
        return query_events(self.ledger, **filters)

    def provenance_of(self, policy: Any):
        """The requests that exported data carrying ``policy`` — see
        :func:`repro.audit.query.provenance_of`."""
        from .query import provenance_of as query_provenance
        self.flush()
        return query_provenance(self.ledger, policy)

    def __repr__(self) -> str:
        return (
            f"AuditRecorder(recorded={self.events_recorded}, "
            f"dropped={self.dropped_events}, errors={self.record_errors})"
        )
