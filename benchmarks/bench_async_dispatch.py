"""Asyncio front-end benchmark: req/s and per-table lock scaling.

Two questions, each in its own benchmark group:

* **Front-end cost** — requests/sec for the same page workload at 1/4/16
  concurrency, served by ``AsyncDispatcher`` (event loop + worker threads) vs the
  thread-pool ``Dispatcher``.  The async front end must stay in the same
  throughput regime: the loop adds scheduling, not parallelism.  The
  acceptance bar for the thread pool is >2x req/s at 4 workers vs 1
  (``test_four_workers_double_throughput``, run standalone in CI).

* **Lock granularity** — concurrent write transactions that hold their
  table's lock across a read-modify-write with a simulated storage latency
  inside the critical section.  Spread over four disjoint tables the
  transactions overlap (per-table locks); aimed at one shared table they
  serialize — which is what the old single engine lock did to *every*
  workload.  The acceptance bar is >1.5x req/s for disjoint tables at 4
  concurrent tasks (``test_disjoint_tables_scale_vs_single_lock``, run
  standalone in CI).

Run with::

    pytest benchmarks/bench_async_dispatch.py --benchmark-only \
        --benchmark-group-by=group --benchmark-columns=min,mean,ops
"""

import time

import pytest

from repro.environment import Environment
from repro.server.async_dispatcher import AsyncDispatcher
from repro.server.dispatcher import Dispatcher
from repro.tracking.propagation import concat
from repro.web.app import WebApplication
from repro.web.request import Request
from repro.web.sanitize import html_escape, sql_quote

#: Requests per measured batch.
BATCH = 32

#: Simulated per-request backend latency for the page workload (lock-free
#: wait, like a downstream service call) — what both front ends overlap.
BACKEND_WAIT = 0.010

#: Simulated storage latency *inside* a write transaction's critical
#: section — the time the request holds its table's lock.
TXN_HOLD = 0.005

#: Disjoint tables for the contention workload.
WRITE_TABLES = 4


def _build_page_app():
    env = Environment()
    env.db.execute_unchecked("CREATE TABLE pages (id INTEGER, title TEXT, body TEXT)")
    for page_id in range(8):
        # concat keeps the quoted body's SQLSanitized; an f-string drops it.
        env.db.query(
            concat(
                "INSERT INTO pages (id, title, body) "
                f"VALUES ({page_id}, 'title {page_id}', '",
                sql_quote("lorem ipsum dolor sit amet "),
                "')",
            )
        )
    app = WebApplication(env, "bench-async")

    @app.route("/page")
    def page(request, response):
        time.sleep(BACKEND_WAIT)
        page_id = int(request.param("id", 0)) % 8
        query = f"SELECT title, body FROM pages WHERE id = {page_id}"
        row = env.db.query(query).rows[0]
        response.write("<h1>")
        response.write(html_escape(row["title"]))
        response.write("</h1><div>")
        response.write(html_escape(row["body"]))
        response.write(f"</div><p>for {request.user}</p>")

    return app


def _build_write_app():
    env = Environment()
    for index in range(WRITE_TABLES):
        env.db.execute_unchecked(
            f"CREATE TABLE counters_{index} (id INTEGER, n INTEGER)"
        )
        env.db.query(f"INSERT INTO counters_{index} (id, n) VALUES (0, 0)")
    app = WebApplication(env, "bench-writes")

    @app.route("/bump")
    def bump(request, response):
        table = f"counters_{int(request.param('table', 0))}"
        # The per-table critical section: read, wait on (simulated) storage,
        # write back.  Requests on different tables hold different locks.
        with env.db.transaction(table):
            count = env.db.query(f"SELECT n FROM {table} WHERE id = 0").scalar()
            time.sleep(TXN_HOLD)
            env.db.query(f"UPDATE {table} SET n = {int(count) + 1} WHERE id = 0")
        response.write(f"{table} bumped")

    return app


@pytest.fixture(scope="module")
def page_app():
    return _build_page_app()


@pytest.fixture(scope="module")
def write_app():
    return _build_write_app()


def _page_requests():
    return [
        Request("/page", params={"id": str(i)}, user=f"user-{i}@example.org")
        for i in range(BATCH)
    ]


def _write_requests(disjoint):
    return [
        Request(
            "/bump",
            params={"table": str(i % WRITE_TABLES if disjoint else 0)},
            user=f"user-{i}@example.org",
        )
        for i in range(BATCH)
    ]


@pytest.mark.parametrize("concurrency", [1, 4, 16])
def test_async_dispatch_throughput(benchmark, page_app, concurrency):
    benchmark.group = f"page-async-{concurrency}"
    requests = _page_requests()
    with AsyncDispatcher(page_app, workers=concurrency) as server:

        def round_trip():
            responses = server.run(requests)
            assert all("lorem" in r.body() for r in responses)

        benchmark(round_trip)

    benchmark.extra_info["concurrency"] = concurrency
    if benchmark.enabled:  # no stats under --benchmark-disable
        seconds_per_batch = benchmark.stats.stats.mean
        benchmark.extra_info["requests_per_sec"] = round(BATCH / seconds_per_batch, 1)


@pytest.mark.parametrize("concurrency", [1, 4, 16])
def test_thread_dispatch_throughput(benchmark, page_app, concurrency):
    benchmark.group = f"page-threads-{concurrency}"
    requests = _page_requests()
    with Dispatcher(page_app, workers=concurrency) as server:

        def round_trip():
            responses = server.dispatch_all(requests)
            assert all("lorem" in r.body() for r in responses)

        benchmark(round_trip)

    benchmark.extra_info["concurrency"] = concurrency
    if benchmark.enabled:  # no stats under --benchmark-disable
        seconds_per_batch = benchmark.stats.stats.mean
        benchmark.extra_info["requests_per_sec"] = round(BATCH / seconds_per_batch, 1)


def test_four_workers_double_throughput(page_app):
    """The thread dispatcher's acceptance bar, standalone (no
    --benchmark-only needed): 4 workers serve >2x the requests/sec of 1
    worker."""
    requests = _page_requests()

    def requests_per_sec(workers):
        with Dispatcher(page_app, workers=workers) as server:
            server.dispatch_all(requests)  # warm the pool
            start = time.perf_counter()
            server.dispatch_all(requests)
            elapsed = time.perf_counter() - start
        return BATCH / elapsed

    serial = requests_per_sec(1)
    parallel = requests_per_sec(4)
    assert parallel > 2 * serial, (
        f"expected >2x scaling, got {parallel / serial:.2f}x "
        f"({serial:.0f} -> {parallel:.0f} req/s)"
    )


@pytest.mark.parametrize("layout", ["disjoint-tables", "single-table"])
def test_write_contention(benchmark, write_app, layout):
    benchmark.group = f"writes-4-tasks-{layout}"
    requests = _write_requests(disjoint=(layout == "disjoint-tables"))
    with AsyncDispatcher(write_app, workers=4) as server:

        def round_trip():
            responses = server.run(requests)
            assert all("bumped" in r.body() for r in responses)

        benchmark(round_trip)

    benchmark.extra_info["layout"] = layout
    if benchmark.enabled:  # no stats under --benchmark-disable
        seconds_per_batch = benchmark.stats.stats.mean
        benchmark.extra_info["requests_per_sec"] = round(BATCH / seconds_per_batch, 1)


def test_disjoint_tables_scale_vs_single_lock(write_app):
    """The ISSUE acceptance criterion, standalone (no --benchmark-only
    needed): at 4 concurrent tasks, write transactions on disjoint tables
    reach >1.5x the req/s of the same transactions serialized on one table —
    the single-lock regime the engine used to impose on every workload."""

    def requests_per_sec(disjoint):
        requests = _write_requests(disjoint)
        with AsyncDispatcher(write_app, workers=4) as server:
            server.run(requests)  # warm the pool and the lock registry
            start = time.perf_counter()
            server.run(requests)
            elapsed = time.perf_counter() - start
        return BATCH / elapsed

    single = requests_per_sec(disjoint=False)
    disjoint = requests_per_sec(disjoint=True)
    assert disjoint > 1.5 * single, (
        f"expected >1.5x scaling on disjoint tables, got {disjoint / single:.2f}x "
        f"({single:.0f} -> {disjoint:.0f} req/s)"
    )
