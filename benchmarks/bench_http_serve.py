"""Keep-alive vs close-per-request over the real HTTP/1.1 socket server.

The tentpole question of the socket front end: what does connection reuse
buy once every response is a streaming body whose chunks each cross the
taint boundary?  Per request the server does identical work — parse, admit
through the dispatcher, run the handler, assert every chunk at the channel
— so the whole difference between the two columns is connection overhead:
the TCP handshake, the asyncio accept + connection task, and the teardown
that close-per-request pays 16 times per batch and keep-alive pays once.

Three client disciplines, all at ``CONNECTIONS`` concurrent clients:

* ``keepalive-pipelined`` — one persistent connection per client, requests
  sent in pipelined batches of ``PIPELINE`` (RFC 9112 §9.3.2; the serve
  loop answers them in order and coalesces the responses into one write);
* ``keepalive-serial`` — one persistent connection per client, strict
  request/response lockstep;
* ``close-per-request`` — a fresh connection for every single request.

A fourth, socket-free column (``test_in_process_throughput``) dispatches
the same requests straight into ``AsyncDispatcher``, so the wire cost of
the socket path is visible against the in-process harness.

The served body is a chunked stream of three records tainted with
``ReadAccessPolicy`` where they are born (as rows loaded from storage
would be); every request re-asserts each record at the HTTP channel on its
way out, so the benchmark measures the server with data flow assertions
on, not a hollow echo route.

The acceptance criterion (``test_keep_alive_beats_close_per_request``,
run standalone in CI) holds pipelined keep-alive — connection reuse as
HTTP/1.1 defines it — to >= 2x the req/s of close-per-request.

Run with::

    pytest benchmarks/bench_http_serve.py --benchmark-only \
        --benchmark-group-by=group --benchmark-columns=min,mean,ops
"""

import socket
import statistics
import threading
import time

import pytest

from repro.core.api import policy_add
from repro.environment import Environment
from repro.policies.acl import ReadAccessPolicy
from repro.server.async_dispatcher import AsyncDispatcher
from repro.server.http import HTTPServer, ServerHandle
from repro.web.app import WebApplication
from repro.web.request import Request
from repro.web.response import Response

#: Concurrent client connections (the ISSUE's stated concurrency level).
CONNECTIONS = 16

#: Requests each client issues per measured batch.
REQS_PER_CLIENT = 32

#: Requests per pipelined burst on the ``keepalive-pipelined`` discipline.
PIPELINE = 8

#: The account allowed to read the streamed records.
OWNER = "owner@example.org"

#: Last frame of every complete chunked response body.
TERMINATOR = b"0\r\n\r\n"

_REQUEST = (
    b"GET /export HTTP/1.1\r\nHost: bench\r\n"
    b"X-Resin-User: owner@example.org\r\n\r\n"
)
_REQUEST_CLOSE = (
    b"GET /export HTTP/1.1\r\nHost: bench\r\n"
    b"X-Resin-User: owner@example.org\r\n"
    b"Connection: close\r\n\r\n"
)


def _build_app():
    env = Environment()
    app = WebApplication(env, name="bench-http")
    # Tainted once, where the data is born; asserted on every request at
    # the channel boundary as each chunk is framed.
    records = [
        policy_add(f"record-{i};", ReadAccessPolicy([OWNER], label="export"))
        for i in range(3)
    ]

    @app.route("/export")
    async def export(request, response):
        def rows():
            for record in records:
                yield record

        return Response().stream(rows())

    return app


@pytest.fixture(scope="module")
def served():
    server = HTTPServer(
        _build_app(),
        user_header="x-resin-user",
        workers=8,
        max_in_flight=2 * CONNECTIONS,
        max_connections=4 * CONNECTIONS,
    )
    with ServerHandle(server).start() as handle:
        yield handle


def _read_responses(sock, count):
    """Read until ``count`` complete chunked responses have arrived."""
    buf = b""
    while buf.count(TERMINATOR) < count:
        data = sock.recv(65536)
        if not data:
            raise AssertionError(
                f"connection closed after {buf.count(TERMINATOR)}/{count} "
                f"responses: {buf[-200:]!r}"
            )
        buf += data
    return buf


def _client_pipelined(port, latencies):
    sock = socket.create_connection(("127.0.0.1", port), timeout=60)
    try:
        for _ in range(REQS_PER_CLIENT // PIPELINE):
            start = time.perf_counter()
            sock.sendall(_REQUEST * PIPELINE)
            buf = _read_responses(sock, PIPELINE)
            latencies.append(time.perf_counter() - start)
            assert buf.count(b"record-2;") == PIPELINE
    finally:
        sock.close()


def _client_serial(port, latencies):
    sock = socket.create_connection(("127.0.0.1", port), timeout=60)
    try:
        for _ in range(REQS_PER_CLIENT):
            start = time.perf_counter()
            sock.sendall(_REQUEST)
            buf = _read_responses(sock, 1)
            latencies.append(time.perf_counter() - start)
            assert b"record-2;" in buf
    finally:
        sock.close()


def _client_close(port, latencies):
    for _ in range(REQS_PER_CLIENT):
        start = time.perf_counter()
        sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        try:
            sock.sendall(_REQUEST_CLOSE)
            buf = _read_responses(sock, 1)
        finally:
            sock.close()
        latencies.append(time.perf_counter() - start)
        assert b"record-2;" in buf


_CLIENTS = {
    "keepalive-pipelined": _client_pipelined,
    "keepalive-serial": _client_serial,
    "close-per-request": _client_close,
}


def _run_batch(port, discipline):
    """One measured batch: CONNECTIONS clients, REQS_PER_CLIENT each.

    Returns per-operation latencies (an operation is one pipelined burst
    for the pipelined discipline, one request otherwise)."""
    client = _CLIENTS[discipline]
    latencies = []
    threads = [
        threading.Thread(target=client, args=(port, latencies))
        for _ in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(latencies) > 0
    return latencies


@pytest.mark.parametrize("discipline", list(_CLIENTS))
def test_http_serve_throughput(benchmark, served, discipline):
    benchmark.group = f"http-{discipline}"
    latencies = []

    def batch():
        latencies.extend(_run_batch(served.port, discipline))

    benchmark(batch)
    total = CONNECTIONS * REQS_PER_CLIENT
    benchmark.extra_info["connections"] = CONNECTIONS
    if benchmark.enabled:  # no stats under --benchmark-disable
        seconds_per_batch = benchmark.stats.stats.mean
        benchmark.extra_info["requests_per_sec"] = round(total / seconds_per_batch, 1)
    quantiles = statistics.quantiles(latencies, n=100)
    benchmark.extra_info["p99_latency_ms"] = round(quantiles[98] * 1e3, 3)


def test_in_process_throughput(benchmark):
    """The no-socket baseline: the same route, same per-chunk assertions,
    dispatched straight into ``AsyncDispatcher`` — everything the socket
    columns add on top of this is wire cost (parsing, framing, syscalls,
    connection management)."""
    benchmark.group = "http-in-process"
    app = _build_app()
    total = CONNECTIONS * REQS_PER_CLIENT
    requests = [Request("/export", user=OWNER) for _ in range(total)]

    def batch():
        with AsyncDispatcher(app, workers=8, max_in_flight=2 * CONNECTIONS) as server:
            responses = server.run(requests)
        assert all("record-2;" in r.body() for r in responses)

    benchmark(batch)
    if benchmark.enabled:  # no stats under --benchmark-disable
        seconds_per_batch = benchmark.stats.stats.mean
        benchmark.extra_info["requests_per_sec"] = round(total / seconds_per_batch, 1)


def test_keep_alive_beats_close_per_request(served):
    """The ISSUE acceptance criterion, standalone (no --benchmark-only
    needed): at 16 concurrent connections streaming policy-asserted
    chunks, keep-alive (pipelined, as HTTP/1.1 connection reuse allows)
    reaches >= 2x the req/s of opening a fresh connection per request —
    the per-request work is identical, so reuse wins exactly the
    handshake + accept + teardown that close-per-request repays every
    time."""
    total = CONNECTIONS * REQS_PER_CLIENT

    def requests_per_sec(discipline):
        _run_batch(served.port, discipline)  # warm caches and listener
        best = 0.0
        for _ in range(3):
            start = time.perf_counter()
            _run_batch(served.port, discipline)
            best = max(best, total / (time.perf_counter() - start))
        return best

    close = requests_per_sec("close-per-request")
    keep_alive = requests_per_sec("keepalive-pipelined")
    assert keep_alive >= 2.0 * close, (
        f"expected >=2x keep-alive-vs-close throughput at {CONNECTIONS} "
        f"connections, got {keep_alive / close:.2f}x "
        f"({close:.0f} -> {keep_alive:.0f} req/s)"
    )
