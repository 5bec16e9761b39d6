"""Audit recorder overhead: HotCRP page renders with audit on vs off.

The ISSUE acceptance bar: with the recorder enabled, the HotCRP
page-render group stays within **1.3x** of the audit-off baseline at 16
workers.  ``test_audit_overhead_within_1_3x`` enforces the floor locally
(best-of-5, the ``bench_taint_hotpath`` pattern); the CI autosave/compare
cache additionally gates regressions against the previous successful
build on this branch.

Groups:

* ``audit-page-render``  — one HotCRP page render, audit off / memory / disk
* ``audit-page-render-16`` — 16 workers x 4 pages, audit off / on
* ``audit-capture``      — the raw ``record()`` enqueue cost
* ``audit-drain``        — the writer's cost: export events recorded into a
  disk ledger, timed until ``flush()`` returns (build, frame, write, sync)
"""

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.audit.ledger import AuditLedger, MemoryLedger
from repro.audit.recorder import SERVICE_NAME, AuditRecorder
from repro.evaluation import hotcrp_perf


@pytest.fixture(scope="module")
def hotcrp_workloads():
    return hotcrp_perf.build_workloads()


@pytest.fixture
def memory_recorder():
    recorder = AuditRecorder(MemoryLedger())
    yield recorder
    recorder.close()


@pytest.fixture
def disk_recorder(tmp_path):
    recorder = AuditRecorder(AuditLedger(str(tmp_path / "audit")))
    yield recorder
    recorder.close()


@contextmanager
def audited(workload, recorder):
    """Register ``recorder`` on the workload site's environment for the
    scope; the site is shared by every test in this module."""
    services = workload.site.env.services
    services.register(SERVICE_NAME, recorder)
    try:
        yield
    finally:
        services.unregister(SERVICE_NAME)


# -- single-threaded page render --------------------------------------------------


def test_page_render_audit_off(benchmark, hotcrp_workloads):
    workload = hotcrp_workloads["resin"]
    benchmark.group = "audit-page-render"
    benchmark.extra_info["audit"] = "off"
    body = benchmark(workload.generate_page)
    assert "Improving Application Security" in body


def test_page_render_audit_memory(benchmark, hotcrp_workloads, memory_recorder):
    workload = hotcrp_workloads["resin"]
    benchmark.group = "audit-page-render"
    benchmark.extra_info["audit"] = "memory"
    with audited(workload, memory_recorder):
        body = benchmark(workload.generate_page)
    memory_recorder.flush()
    assert "Improving Application Security" in body
    assert memory_recorder.events_recorded > 0


def test_page_render_audit_disk(benchmark, hotcrp_workloads, disk_recorder):
    workload = hotcrp_workloads["resin"]
    benchmark.group = "audit-page-render"
    benchmark.extra_info["audit"] = "disk"
    with audited(workload, disk_recorder):
        body = benchmark(workload.generate_page)
    disk_recorder.flush()
    assert "Improving Application Security" in body
    assert disk_recorder.ledger.events_written > 0


# -- 16-worker page render (the acceptance group) ---------------------------------


def _parallel_render(workload, pool, workers=16, pages=4):
    def task():
        for _ in range(pages):
            workload.generate_page()

    futures = [pool.submit(task) for _ in range(workers)]
    for future in futures:
        future.result()


@pytest.mark.parametrize("audit", ["off", "on"])
def test_page_render_16_workers(benchmark, hotcrp_workloads, audit):
    workload = hotcrp_workloads["resin"]
    benchmark.group = "audit-page-render-16"
    benchmark.extra_info["audit"] = audit
    pool = ThreadPoolExecutor(max_workers=16)
    try:
        if audit == "off":
            benchmark(lambda: _parallel_render(workload, pool))
        else:
            recorder = AuditRecorder(MemoryLedger())
            try:
                with audited(workload, recorder):
                    benchmark(lambda: _parallel_render(workload, pool))
            finally:
                recorder.close()
    finally:
        pool.shutdown(wait=True)


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_audit_overhead_within_1_3x(hotcrp_workloads):
    """The acceptance floor: audit-on must stay within 1.3x of audit-off on
    the HotCRP page-render group at 16 workers.  The capture path pays one
    queue append per decision; serialization and framing run on the
    recorder's background writer thread."""
    workload = hotcrp_workloads["resin"]
    pool = ThreadPoolExecutor(max_workers=16)
    try:
        render = lambda: _parallel_render(workload, pool)  # noqa: E731
        off = _best_of(render)
        recorder = AuditRecorder(MemoryLedger())
        try:
            with audited(workload, recorder):
                on = _best_of(render)
            recorder.flush()
            assert recorder.events_recorded > 0
        finally:
            recorder.close()
    finally:
        pool.shutdown(wait=True)
    ratio = on / off
    assert ratio <= 1.3, f"audit-on {ratio:.2f}x audit-off (bound: 1.3x)"


# -- raw capture cost -------------------------------------------------------------


def test_record_enqueue_cost(benchmark, memory_recorder):
    from repro.policies import UntrustedData
    from repro.tracking import taint_str

    tainted = taint_str("payload " * 64, UntrustedData("bench"))
    rangemap = tainted.rangemap
    policies = tainted.policies()
    benchmark.group = "audit-capture"

    def capture():
        memory_recorder.record(
            "export", verdict="allow", policies=policies, rangemap=rangemap
        )

    benchmark(capture)
    memory_recorder.flush()
    assert memory_recorder.events_recorded > 0


# -- writer drain cost ------------------------------------------------------------

#: Events recorded per timed drain.
DRAIN_EVENTS = 256


def _page_exports(pages=8):
    """``(policies, rangemap)`` of HotCRP-like paper pages: an escaped title
    and abstract under ``PaperPolicy``, an author list under
    ``AuthorListPolicy``, and a form comment as ``UntrustedData``."""
    from repro.apps.hotcrp import AuthorListPolicy, PaperPolicy
    from repro.policies import UntrustedData
    from repro.tracking import concat, taint_str
    from repro.web.sanitize import html_escape

    exports = []
    for paper_id in range(1, pages + 1):
        authors = [f"author{paper_id}@example.org", "pc@example.org"]
        paper = PaperPolicy(paper_id, authors)
        page = concat(
            "<h1>",
            html_escape(taint_str(f"Paper {paper_id} & friends", paper)),
            "</h1><p>",
            html_escape(taint_str("An abstract <with> markup. " * 4, paper)),
            "</p><p>",
            taint_str(", ".join(authors), AuthorListPolicy(paper_id, authors, True)),
            "</p><blockquote>",
            html_escape(taint_str("A comment's body", UntrustedData("form"))),
            "</blockquote>",
        )
        exports.append((page.policies(), page.rangemap))
    return exports


def test_audit_drain(benchmark, disk_recorder):
    exports = _page_exports()
    benchmark.group = "audit-drain"
    benchmark.extra_info["events"] = DRAIN_EVENTS

    def drain():
        for n in range(DRAIN_EVENTS):
            policies, rangemap = exports[n % len(exports)]
            disk_recorder.record(
                "export",
                verdict="allow",
                policies=policies,
                rangemap=rangemap,
                channel="http",
            )
        disk_recorder.flush()

    benchmark(drain)
    assert disk_recorder.record_errors == 0
    assert disk_recorder.ledger.events_written == disk_recorder.events_recorded > 0
