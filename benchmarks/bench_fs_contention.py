"""Filesystem lock-granularity benchmark: per-subtree scaling.

Concurrent write transactions hold their directory's subtree lock across a
read-modify-write with a simulated storage latency inside the critical
section.  Spread over four disjoint directories the transactions overlap
(per-subtree locks); aimed at one shared directory they serialize — which is
what the old single ``ResinFS`` lock did to *every* workload.  The
acceptance bar is >1.5x req/s for disjoint subtrees at 4 workers
(``test_disjoint_subtrees_scale_vs_single_lock``, run standalone in CI).

Run with::

    pytest benchmarks/bench_fs_contention.py --benchmark-only \
        --benchmark-group-by=group --benchmark-columns=min,mean,ops
"""

import time

import pytest

from repro.environment import Environment
from repro.server.async_dispatcher import AsyncDispatcher
from repro.web.app import WebApplication
from repro.web.request import Request

#: Requests per measured batch.
BATCH = 32

#: Simulated storage latency *inside* a write transaction's critical
#: section — the time the request holds its subtree's lock.
TXN_HOLD = 0.005

#: Disjoint directories for the contention workload.
SUBTREES = 4


def _build_write_app():
    env = Environment()
    for index in range(SUBTREES):
        env.fs.mkdir(f"/data/d{index}", parents=True)
        env.fs.write_text(f"/data/d{index}/counter", "0")
    app = WebApplication(env, "bench-fs-writes")

    @app.route("/bump")
    def bump(request, response):
        path = f"/data/d{int(request.param('dir', 0))}/counter"
        # The per-subtree critical section: read, wait on (simulated)
        # storage, write back.  Requests under different directories hold
        # different locks.
        with env.fs.transaction(path):
            value = int(str(env.fs.read_text(path)))
            time.sleep(TXN_HOLD)
            env.fs.write_text(path, str(value + 1))
        response.write(f"{path} bumped")

    return app


@pytest.fixture(scope="module")
def write_app():
    return _build_write_app()


def _write_requests(disjoint):
    return [
        Request(
            "/bump",
            params={"dir": str(i % SUBTREES if disjoint else 0)},
            user=f"user-{i}@example.org",
        )
        for i in range(BATCH)
    ]


@pytest.mark.parametrize("concurrency", [1, 4, 16])
@pytest.mark.parametrize("layout", ["disjoint-subtrees", "single-subtree"])
def test_fs_write_contention(benchmark, write_app, layout, concurrency):
    benchmark.group = f"fs-writes-{concurrency}-workers-{layout}"
    requests = _write_requests(disjoint=(layout == "disjoint-subtrees"))
    with AsyncDispatcher(write_app, workers=concurrency) as server:

        def round_trip():
            responses = server.run(requests)
            assert all("bumped" in r.body() for r in responses)

        benchmark(round_trip)

    benchmark.extra_info["layout"] = layout
    benchmark.extra_info["concurrency"] = concurrency
    if benchmark.enabled:  # no stats under --benchmark-disable
        seconds_per_batch = benchmark.stats.stats.mean
        benchmark.extra_info["requests_per_sec"] = round(BATCH / seconds_per_batch, 1)


def test_disjoint_subtrees_scale_vs_single_lock(write_app):
    """The ISSUE acceptance criterion, standalone (no --benchmark-only
    needed): at 4 workers, write transactions under disjoint directories
    reach >1.5x the req/s of the same transactions serialized under one
    directory — the single-lock regime ResinFS used to impose on every
    workload."""

    def requests_per_sec(disjoint):
        requests = _write_requests(disjoint)
        with AsyncDispatcher(write_app, workers=4) as server:
            server.run(requests)  # warm the pool and lock registry
            start = time.perf_counter()
            server.run(requests)
            elapsed = time.perf_counter() - start
        return BATCH / elapsed

    single = requests_per_sec(disjoint=False)
    disjoint = requests_per_sec(disjoint=True)
    assert disjoint > 1.5 * single, (
        f"expected >1.5x scaling on disjoint subtrees, got "
        f"{disjoint / single:.2f}x ({single:.0f} -> {disjoint:.0f} req/s)"
    )
