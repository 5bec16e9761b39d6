"""Flow provenance ledger: append-only audit of policy decisions.

RESIN decides allow/deny at each filter boundary and then forgets; this
subsystem is the forensic memory.  An opt-in
:class:`~repro.audit.recorder.AuditRecorder` service observes every
export check, declassification and policy violation and appends one event
per decision to an :class:`~repro.audit.ledger.AuditLedger` — the same
length-prefixed + CRC framed segment format as the write-ahead log
(shared via :mod:`repro.storage.framing`), so the ledger inherits the
torn-tail/exact-prefix recovery story.  :mod:`repro.audit.query` answers
the after-the-fact questions ("which requests ever exported data carrying
this password's policy?") by streaming segments.

Recording **never changes a verdict**: the instrumentation hooks observe
allow/deny decisions and re-raise violations unchanged, and every
recording call is guarded so an audit failure cannot fail a request.
"""

from .ledger import AuditLedger, MemoryLedger
from .recorder import SERVICE_NAME, AuditRecorder, recorder_for
from .query import events, provenance_of

__all__ = [
    "AuditLedger",
    "AuditRecorder",
    "MemoryLedger",
    "SERVICE_NAME",
    "events",
    "provenance_of",
    "recorder_for",
]
