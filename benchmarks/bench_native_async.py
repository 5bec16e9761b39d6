"""Loop-native ``async def`` handlers vs executor-wrapped sync handlers.

The tentpole question of the native-async redesign: for I/O-bound handlers,
what does awaiting the handler on the event loop (no executor hop) buy over
running an equivalent blocking handler on the dispatcher's thread pool?

Both workloads simulate the same downstream I/O wait per request; the app
exposes them side by side:

* ``/io-native`` — ``async def``, ``await asyncio.sleep(IO_WAIT)``; served
  directly on the loop, so concurrency is bounded only by ``max_in_flight``;
* ``/io-executor`` — sync, ``time.sleep(IO_WAIT)``; served on the
  dispatcher's executor, so concurrency is bounded by its ``WORKERS``
  threads no matter how many requests are admitted.

At 1 and 4 in-flight the two paths are equivalent (the worker pool covers
the concurrency).  At 16 in-flight the loop overlaps all 16 waits while the
executor path still overlaps only ``WORKERS`` — the regime where the native
path must win by >= 2x (``test_native_async_scales_past_the_executor``, run
standalone in CI).

Run with::

    pytest benchmarks/bench_native_async.py --benchmark-only \
        --benchmark-group-by=group --benchmark-columns=min,mean,ops
"""

import asyncio
import time

import pytest

from repro.environment import Environment
from repro.runtime_api import Resin
from repro.server.async_dispatcher import AsyncDispatcher
from repro.web.request import Request

#: Requests per measured batch.
BATCH = 32

#: Simulated per-request downstream I/O wait (both flavours).
IO_WAIT = 0.010

#: Executor threads backing the sync path (and the native path's dispatcher,
#: where they sit idle) — deliberately smaller than the top in-flight level.
WORKERS = 4


def _build_app():
    resin = Resin(Environment())
    app = resin.app("bench-native")

    @app.route("/io-native")
    async def io_native(request, response):
        await asyncio.sleep(IO_WAIT)
        return f"native done for {request.user}"

    @app.route("/io-executor")
    def io_executor(request, response):
        time.sleep(IO_WAIT)
        response.write(f"executor done for {request.user}")

    return app


@pytest.fixture(scope="module")
def app():
    return _build_app()


def _requests(path):
    return [
        Request(path, params={"i": str(i)}, user=f"user-{i}@example.org")
        for i in range(BATCH)
    ]


def _serve_batch(app, path, in_flight):
    requests = _requests(path)
    with AsyncDispatcher(app, workers=WORKERS, max_in_flight=in_flight) as server:
        responses = server.run(requests)
    assert all("done" in response.body() for response in responses)


@pytest.mark.parametrize("in_flight", [1, 4, 16])
def test_native_async_throughput(benchmark, app, in_flight):
    benchmark.group = f"io-native-{in_flight}"

    def round_trip():
        _serve_batch(app, "/io-native", in_flight)

    benchmark(round_trip)
    benchmark.extra_info["in_flight"] = in_flight
    if benchmark.enabled:  # no stats under --benchmark-disable
        seconds_per_batch = benchmark.stats.stats.mean
        benchmark.extra_info["requests_per_sec"] = round(BATCH / seconds_per_batch, 1)


@pytest.mark.parametrize("in_flight", [1, 4, 16])
def test_executor_throughput(benchmark, app, in_flight):
    benchmark.group = f"io-executor-{in_flight}"

    def round_trip():
        _serve_batch(app, "/io-executor", in_flight)

    benchmark(round_trip)
    benchmark.extra_info["in_flight"] = in_flight
    if benchmark.enabled:  # no stats under --benchmark-disable
        seconds_per_batch = benchmark.stats.stats.mean
        benchmark.extra_info["requests_per_sec"] = round(BATCH / seconds_per_batch, 1)


def test_native_async_scales_past_the_executor(app):
    """The ISSUE acceptance criterion, standalone (no --benchmark-only
    needed): at 16 in-flight I/O-bound requests over a 4-thread executor,
    loop-native handlers reach >= 2x the req/s of executor-wrapped ones —
    the loop overlaps every admitted wait, the pool only ``WORKERS`` of
    them."""

    def requests_per_sec(path):
        requests = _requests(path)
        with AsyncDispatcher(app, workers=WORKERS, max_in_flight=16) as server:
            server.run(requests)  # warm the pool
            start = time.perf_counter()
            server.run(requests)
            elapsed = time.perf_counter() - start
        return BATCH / elapsed

    executor = requests_per_sec("/io-executor")
    native = requests_per_sec("/io-native")
    assert native >= 2.0 * executor, (
        f"expected >=2x native-vs-executor throughput at 16 in-flight, got "
        f"{native / executor:.2f}x ({executor:.0f} -> {native:.0f} req/s)"
    )
