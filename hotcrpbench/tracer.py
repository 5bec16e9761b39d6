"""Outside-in layer spans for the traced run.

:class:`Tracer` wraps the public entry point of each layer a HotCRP request
crosses -- from the benchmark's own files, by replacing the attribute on its
class or module -- and records, per span name, the number of calls, the
wall time, the self time (duration minus the wrapped calls it made) and the
policy violations it raised.  Self times are kept on a per-thread span
stack, so the layer self times of one request add up to its handler time.

``AsyncDispatcher.dispatch`` is a coroutine whose callers interleave on the
event loop, so it is timed outside that stack.  A context variable marks
the spans that run inside a dispatch (route matching on the loop, the
handler on an executor thread); dispatch time minus theirs is the dispatch
wait (admission, executor hop and context binding).  The root spans outside
any dispatch (request parsing) plus the dispatches are the time the trace
attributes to a request.

:meth:`Tracer.start` installs the wrappers and :meth:`Tracer.stop` restores
the originals, so a run can alternate traced and untraced windows; spans and
counter deltas accumulate over every traced window.  Spans live in memory
and are folded into per-request layer means by :meth:`Tracer.report`.
"""

from __future__ import annotations

import contextvars
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Dict, List

from repro.apps import hotcrp
from repro.audit.recorder import AuditRecorder
from repro.channels import sqlchan
from repro.channels.httpout import HTTPOutputChannel
from repro.core.exceptions import PolicyViolation
from repro.core.filter import DefaultFilter, FilterChain
from repro.server.async_dispatcher import AsyncDispatcher
from repro.server.http.parser import RequestParser
from repro.sql.executor import Executor
from repro.sql.planner import Planner
from repro.storage import durability
from repro.storage.wal import WriteAheadLog
from repro.tracking import propagation
from repro.web.app import WebApplication
from repro.web.routing import Router

#: (owner, attribute, span name) of every synchronous entry point traced.
SPANS = (
    (RequestParser, "feed", "http.parse"),
    (RequestParser, "next_request", "http.parse"),
    (Router, "match", "web.route"),
    (WebApplication, "handle", "web.handle"),
    (hotcrp.HotCRP, "paper_page", "app.handler"),
    (hotcrp.HotCRP, "add_review", "app.handler"),
    (FilterChain, "filter_func", "sql.guard"),
    (sqlchan.Database, "_execute", "sqlchan.query"),
    (sqlchan, "parse", "sql.parse"),
    (Planner, "plan", "sql.plan"),
    (Planner, "plan_select", "sql.plan"),
    (Executor, "execute", "sql.exec"),
    (sqlchan, "apply_cell_policies", "sqlchan.attach"),
    (sqlchan, "serialize_cell_policies", "sqlchan.serialize"),
    (sqlchan, "deserialize_policyset", "serialization.decode"),
    (sqlchan, "deserialize_rangemap", "serialization.decode"),
    (DefaultFilter, "filter_write", "filter.export"),
    (HTTPOutputChannel, "write", "httpout.write"),
    (propagation, "concat", "tracking.concat"),
    (hotcrp, "concat", "tracking.concat"),
    (WriteAheadLog, "append", "wal.append"),
    (WriteAheadLog, "commit", "wal.commit"),
    (durability, "build_snapshot", "durability.checkpoint"),
    (durability, "write_snapshot", "durability.checkpoint"),
    (AuditRecorder, "record", "audit.record"),
)

#: True while the current task (or the executor call it made) is inside
#: ``AsyncDispatcher.dispatch``.
_IN_DISPATCH = contextvars.ContextVar("hotcrpbench_in_dispatch", default=False)

# Per-name statistics: [calls, total_ns, self_ns, root_ns, nested_ns,
# violations]; a root span counts as nested when it runs inside a dispatch.
_CALLS, _TOTAL, _SELF, _ROOT, _NESTED, _VIOLATIONS = range(6)

#: Store counters read at the edges of each traced window.
_COUNTERS = ("wal_records", "wal_syncs", "checkpoints")


def _new_stat() -> List[int]:
    return [0] * 6


class Tracer:
    """Layer spans of one served site, recorded while started."""

    def __init__(self, site: hotcrp.HotCRP):
        self.site = site
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Dict[str, List[int]]] = []  # one per thread
        self._dispatch = [0, 0]  # calls, total_ns
        self._delta = dict.fromkeys(_COUNTERS, 0)
        self._window_start: Dict[str, int] = {}
        # (owner, attribute, original, wrapper); every traced attribute is a
        # plain function its owner defines itself.
        self._patches = []
        for owner, attribute, name in SPANS:
            original = getattr(owner, attribute)
            wrapper = self._wrap(original, name)
            self._patches.append((owner, attribute, original, wrapper))
        dispatch = AsyncDispatcher.dispatch
        self._patches.append(
            (AsyncDispatcher, "dispatch", dispatch, self._wrap_dispatch(dispatch))
        )

    def start(self) -> None:
        """Install every wrapper and open a traced window."""
        self._window_start = self._counters()
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)

    def stop(self) -> None:
        """Restore the originals and close the traced window."""
        for owner, attribute, original, _ in self._patches:
            setattr(owner, attribute, original)
        end = self._counters()
        for key in _COUNTERS:
            self._delta[key] += end[key] - self._window_start[key]

    # -- recording ----------------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], defaultdict(_new_stat))
            with self._lock:
                self._tables.append(state[1])
        return state

    def _wrap(self, original, name: str):
        tracer = self

        def traced(*args, **kwargs):
            stack, table = tracer._state()
            frame = [0]
            stack.append(frame)
            violated = False
            start = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            except PolicyViolation:
                violated = True
                raise
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                stat = table[name]
                stat[_CALLS] += 1
                stat[_TOTAL] += duration
                stat[_SELF] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                elif _IN_DISPATCH.get():
                    stat[_NESTED] += duration
                else:
                    stat[_ROOT] += duration
                if violated:
                    stat[_VIOLATIONS] += 1

        return traced

    def _wrap_dispatch(self, original):
        tracer = self

        async def dispatch(dispatcher, request):
            token = _IN_DISPATCH.set(True)
            start = perf_counter_ns()
            try:
                return await original(dispatcher, request)
            finally:
                tracer._dispatch[0] += 1
                tracer._dispatch[1] += perf_counter_ns() - start
                _IN_DISPATCH.reset(token)

        return dispatch

    def _counters(self) -> Dict[str, int]:
        store = self.site.env.services.get(durability.SERVICE_NAME)
        if store is None:
            return dict.fromkeys(_COUNTERS, 0)
        return {
            "wal_records": store.wal.records,
            "wal_syncs": store.wal.syncs,
            "checkpoints": store.checkpoints,
        }

    # -- reporting ----------------------------------------------------------

    def report(self) -> Dict[str, float]:
        """Per-request layer means over every traced window, plus
        ``requests`` (dispatches completed) and ``attributed_us`` (the mean
        time covered by root spans).  The ``_us`` values add up to
        ``attributed_us``."""
        stats: Dict[str, List[int]] = defaultdict(_new_stat)
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, stat in table.items():
                total = stats[name]
                for i, value in enumerate(stat):
                    total[i] += value
        dispatch_ns = self._dispatch[1]
        root_ns = dispatch_ns + sum(stat[_ROOT] for stat in stats.values())
        wait_ns = dispatch_ns - sum(stat[_NESTED] for stat in stats.values())
        delta = self._delta
        requests = max(1, self._dispatch[0])

        def self_us(name: str) -> float:
            return stats[name][_SELF] / requests / 1e3

        def calls(name: str, field: int = _CALLS) -> float:
            return stats[name][field] / requests

        checkpoints = delta["checkpoints"]
        checkpoint_ns = stats["durability.checkpoint"][_TOTAL]
        return {
            "requests": self._dispatch[0],
            "attributed_us": root_ns / requests / 1e3,
            "http.parse_us": self_us("http.parse"),
            "dispatch.wait_us": wait_ns / requests / 1e3,
            "web.route_us": self_us("web.route"),
            "web.handle_self_us": self_us("web.handle"),
            "app.handler_self_us": self_us("app.handler"),
            "sql.guard_us": self_us("sql.guard"),
            "sqlchan.query_self_us": self_us("sqlchan.query"),
            "sql.parse_us": self_us("sql.parse"),
            "sql.parse_calls": calls("sql.parse"),
            "sql.plan_us": self_us("sql.plan"),
            "sql.exec_us": self_us("sql.exec"),
            "sqlchan.attach_us": self_us("sqlchan.attach"),
            "sqlchan.attach_calls": calls("sqlchan.attach"),
            "sqlchan.serialize_us": self_us("sqlchan.serialize"),
            "sqlchan.serialize_calls": calls("sqlchan.serialize"),
            "serialization.decode_us": self_us("serialization.decode"),
            "filter.export_us": self_us("filter.export"),
            "filter.export_calls": calls("filter.export"),
            "filter.export_denied": calls("filter.export", _VIOLATIONS),
            "httpout.write_us": self_us("httpout.write"),
            "tracking.concat_us": self_us("tracking.concat"),
            "wal.append_us": self_us("wal.append"),
            "wal.commit_us": self_us("wal.commit"),
            "wal.records_per_sync": delta["wal_records"] / max(1, delta["wal_syncs"]),
            "durability.checkpoint_us": self_us("durability.checkpoint"),
            "durability.checkpoints": checkpoints,
            "durability.checkpoint_ms": checkpoint_ns / max(1, checkpoints) / 1e6,
            "audit.record_us": self_us("audit.record"),
            "audit.record_calls": calls("audit.record"),
        }
