"""Table 4 verdict parity with the audit recorder enabled.

The acceptance bar for the audit subsystem: with a recorder observing
every scenario environment (registered on each one as ``table4`` builds
it — the scenarios build their own environments internally), the attack
verdicts are byte-identical across serial, threaded, async and socket
front ends, and identical to the no-audit baseline.  Recording observes;
it never decides.
"""

from contextlib import contextmanager

import pytest

from repro.audit.ledger import MemoryLedger
from repro.audit.recorder import SERVICE_NAME, AuditRecorder
from repro.evaluation import table4


@pytest.fixture
def recorder():
    recorder = AuditRecorder(MemoryLedger())
    yield recorder
    recorder.close()


@contextmanager
def audit_every_environment(recorder):
    """Within the scope, every environment ``table4`` builds registers
    ``recorder``: its own ``Environment`` name is substituted."""

    class AuditedEnvironment(table4.Environment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.services.register(SERVICE_NAME, recorder)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(table4, "Environment", AuditedEnvironment)
        yield


def _recorded(recorder):
    recorder.flush()
    return recorder.events_recorded


class TestAuditedVerdictParity:
    def test_serial_verdicts_unchanged_by_recorder(self, recorder):
        baseline = table4.verdicts(table4.run_all(True))
        with audit_every_environment(recorder):
            audited = table4.verdicts(table4.run_all(True))
        assert audited == baseline
        recorder.flush()
        # ... and the recorder actually saw the attacks, not an empty run.
        assert recorder.events_recorded > 0
        denies = [e for e in recorder.ledger.iter_events()
                  if e.get("verdict") == "deny"]
        assert denies

    @pytest.mark.parametrize("front_end", ["threads", "async", "socket"])
    def test_concurrent_front_ends_match_serial(self, recorder, front_end):
        serial = table4.verdicts(table4.run_all(True))
        workers = 8 if front_end == "socket" else 16
        with audit_every_environment(recorder):
            audited_serial = table4.verdicts(table4.run_all(True))
            before = _recorded(recorder)
            concurrent = table4.verdicts(table4.run_all_concurrent(
                True, workers=workers, front_end=front_end))
        assert audited_serial == serial
        assert concurrent == serial
        # The concurrent run itself reached the recorder.
        assert _recorded(recorder) > before
