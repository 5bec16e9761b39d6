"""The HTTP/1.1 socket server, exercised over real loopback connections.

Everything here talks to a live ``HTTPServer`` on a background thread
(``ServerHandle``) through ``http.client`` or raw sockets: keep-alive and
pipelining, chunked streaming with a taint check per frame, multi-value
headers on the wire, slowloris/408 and idle-timeout behaviour, premature
disconnects, backpressure, graceful drain, and the ``Resin.serve`` entry
point.
"""

import asyncio
import http.client
import socket
import threading
import time

import pytest

from repro.core.api import policy_add
from repro.core.exceptions import InjectionViolation
from repro.core.filter import Filter
from repro.core.request_context import current_request
from repro.environment import Environment
from repro.policies import PasswordPolicy
from repro.runtime_api import Resin
from repro.server.http import HTTPServer, ServerHandle
from repro.web.app import WebApplication
from repro.web.response import Response
from repro.web.routing import SessionMiddleware


def build_app(env=None):
    app = WebApplication(env or Environment(), "socket-app")

    @app.route("/hello")
    def hello(request, response):
        return Response("hello over the wire")

    @app.route("/whoami")
    def whoami(request, response):
        return Response(f"user={request.user}")

    @app.route("/echo", methods=["POST"])
    def echo(request, response):
        return Response(f"name={request.params.get('name')}")

    @app.route("/cookies")
    def cookies(request, response):
        return (Response(f"sid={request.cookies.get('sid')}")
                .header("Set-Cookie", "a=1; Path=/")
                .header("Set-Cookie", "b=2; Path=/"))

    @app.route("/stream")
    def stream(request, response):
        def chunks():
            for index in range(4):
                yield f"piece-{index};"
        return Response().stream(chunks())

    @app.route("/astream")
    def astream(request, response):
        async def chunks():
            for index in range(3):
                yield f"async-{index};"
        return Response().stream(chunks())

    @app.route("/leak")
    def leak(request, response):
        secret = policy_add("s3cret", PasswordPolicy("owner@example.org"))

        def chunks():
            yield "public-prefix;"
            yield secret  # the assertion fires at the channel, mid-stream
            yield "never-reached;"
        return Response().stream(chunks())

    @app.route("/boom")
    def boom(request, response):
        raise RuntimeError("handler bug")

    return app


def serve(app, **options):
    options.setdefault("idle_timeout", 5.0)
    return ServerHandle(HTTPServer(app, **options)).start()


def raw_exchange(port, payload, timeout=5.0):
    """Send ``payload`` on a fresh socket and read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        received = b""
        while True:
            data = sock.recv(65536)
            if not data:
                return received
            received += data


class TestBasicServing:
    def test_get_and_keep_alive_reuse(self):
        with serve(build_app()) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                              timeout=5)
            try:
                for _ in range(3):  # same connection, three exchanges
                    conn.request("GET", "/hello")
                    reply = conn.getresponse()
                    assert reply.status == 200
                    assert reply.read() == b"hello over the wire"
            finally:
                conn.close()

    def test_post_form_body_reaches_params(self):
        with serve(build_app()) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                              timeout=5)
            try:
                conn.request(
                    "POST", "/echo", body="name=resin",
                    headers={"Content-Type":
                             "application/x-www-form-urlencoded"})
                reply = conn.getresponse()
                assert reply.read() == b"name=resin"
            finally:
                conn.close()

    def test_user_header_sets_the_principal(self):
        with serve(build_app(), user_header="x-resin-user") as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                              timeout=5)
            try:
                conn.request("GET", "/whoami",
                             headers={"X-Resin-User": "alice"})
                assert conn.getresponse().read() == b"user=alice"
            finally:
                conn.close()

    def test_404_405_and_501(self):
        with serve(build_app()) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                              timeout=5)
            try:
                conn.request("GET", "/missing")
                reply = conn.getresponse()
                assert reply.status == 404
                reply.read()
                conn.request("GET", "/echo")  # POST-only route
                reply = conn.getresponse()
                assert reply.status == 405
                assert "POST" in (reply.getheader("Allow") or "")
                reply.read()
            finally:
                conn.close()
            raw = raw_exchange(handle.port,
                               b"BREW /coffee HTTP/1.1\r\nHost: h\r\n\r\n")
            assert raw.startswith(b"HTTP/1.1 501 ")

    def test_handler_exception_is_500_and_closes(self):
        with serve(build_app()) as handle:
            raw = raw_exchange(handle.port,
                               b"GET /boom HTTP/1.1\r\nHost: h\r\n\r\n")
            assert raw.startswith(b"HTTP/1.1 500 ")
            assert b"Connection: close" in raw

    def test_head_sends_headers_but_no_body(self):
        with serve(build_app()) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                              timeout=5)
            try:
                conn.request("HEAD", "/hello")
                reply = conn.getresponse()
                assert reply.status == 200
                assert reply.read() == b""
            finally:
                conn.close()


class TestWireFormat:
    def test_pipelined_requests_answered_in_order(self):
        with serve(build_app()) as handle:
            raw = raw_exchange(
                handle.port,
                b"GET /hello HTTP/1.1\r\nHost: h\r\n\r\n"
                b"GET /whoami HTTP/1.1\r\nHost: h\r\n"
                b"Connection: close\r\n\r\n")
            first, _, second = raw.partition(b"user=None")
            assert first.count(b"HTTP/1.1 200") == 2
            assert b"hello over the wire" in first

    def test_multi_value_headers_are_repeated_lines(self):
        with serve(build_app()) as handle:
            raw = raw_exchange(
                handle.port,
                b"GET /cookies HTTP/1.1\r\nHost: h\r\n"
                b"Cookie: sid=xyz\r\nConnection: close\r\n\r\n")
            head = raw.split(b"\r\n\r\n", 1)[0]
            cookie_lines = [line for line in head.split(b"\r\n")
                            if line.lower().startswith(b"set-cookie:")]
            assert cookie_lines == [b"Set-Cookie: a=1; Path=/",
                                    b"Set-Cookie: b=2; Path=/"]
            assert b"sid=xyz" in raw

    def test_http_10_defaults_to_close(self):
        with serve(build_app()) as handle:
            raw = raw_exchange(handle.port,
                               b"GET /hello HTTP/1.0\r\nHost: h\r\n\r\n")
            assert b"Connection: close" in raw

    @pytest.mark.parametrize("payload,status", [
        (b"GET /page HTTP/9.9\r\n\r\n", b"400"),
        (b"GET / HTTP/1.1\r\nHost : bad\r\n\r\n", b"400"),
        (b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
         b"Content-Length: 4\r\n\r\n", b"400"),
    ])
    def test_parse_errors_get_their_status_and_close(self, payload, status):
        with serve(build_app()) as handle:
            raw = raw_exchange(handle.port, payload)
            assert raw.startswith(b"HTTP/1.1 " + status)

    def test_oversized_header_section_is_431(self):
        from repro.server.http import ParserLimits
        limits = ParserLimits(max_header_bytes=256)
        with serve(build_app(), limits=limits) as handle:
            raw = raw_exchange(
                handle.port,
                b"GET /hello HTTP/1.1\r\nX-Pad: " + b"a" * 1000 + b"\r\n\r\n")
            assert raw.startswith(b"HTTP/1.1 431 ")


class TestStreaming:
    def test_sync_generator_streams_as_chunked(self):
        with serve(build_app()) as handle:
            raw = raw_exchange(
                handle.port,
                b"GET /stream HTTP/1.1\r\nHost: h\r\n"
                b"Connection: close\r\n\r\n")
            head, body = raw.split(b"\r\n\r\n", 1)
            assert b"Transfer-Encoding: chunked" in head
            # Four frames, one per yielded piece, then the terminator.
            assert body.count(b"piece-") == 4
            assert body.endswith(b"0\r\n\r\n")

    def test_async_generator_streams_as_chunked(self):
        with serve(build_app()) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                              timeout=5)
            try:
                conn.request("GET", "/astream")
                reply = conn.getresponse()
                assert reply.getheader("Transfer-Encoding") == "chunked"
                assert reply.read() == b"async-0;async-1;async-2;"
            finally:
                conn.close()

    def test_policy_violation_mid_stream_truncates_the_body(self):
        """The disallowed piece fires the assertion at ``channel.write``:
        the secret never reaches the wire, the chunked body is left without
        its terminating frame, and the connection closes."""
        with serve(build_app()) as handle:
            raw = raw_exchange(
                handle.port,
                b"GET /leak HTTP/1.1\r\nHost: h\r\n\r\n")
            assert b"public-prefix;" in raw
            assert b"s3cret" not in raw
            assert b"never-reached" not in raw
            assert not raw.endswith(b"0\r\n\r\n")  # truncated, not completed

    @pytest.mark.parametrize("route", ["/drain-sync", "/drain-async"])
    def test_stream_drain_runs_in_the_handlers_request_context(self, route):
        """A deferred body is drained after the handler returned, under the
        handler's own request context: the session user the middleware
        resolved, and the query filter the handler stacked, still apply."""
        env = Environment()
        env.db.execute_unchecked("CREATE TABLE notes (body TEXT)")
        app = build_app(env)
        app.middleware(SessionMiddleware())
        session = env.sessions.create(user="alice@example.org")
        seen = {}

        class RefuseEveryQuery(Filter):
            def filter_func(self, func, args, kwargs):
                raise InjectionViolation("query refused")

        def drain_piece():
            rctx = current_request()
            seen["drain_ctx"] = rctx
            seen["drain_user"] = rctx.user if rctx is not None else None
            try:
                env.db.query("SELECT body FROM notes")
                seen["query"] = "allowed"
            except InjectionViolation:
                seen["query"] = "refused"
            return "drained;"

        @app.route("/drain-sync")
        def drain_sync(request, response):
            env.db.add_filter(RefuseEveryQuery())
            seen["handler_ctx"] = current_request()

            def body():
                yield drain_piece()
            return Response().stream(body())

        @app.route("/drain-async")
        async def drain_async(request, response):
            env.db.add_filter(RefuseEveryQuery())
            seen["handler_ctx"] = current_request()

            async def body():
                yield drain_piece()
            return Response().stream(body())

        with serve(app) as handle:
            raw = raw_exchange(
                handle.port,
                b"GET " + route.encode() + b" HTTP/1.1\r\nHost: h\r\n"
                b"Cookie: sid=" + session.sid.encode() + b"\r\n"
                b"Connection: close\r\n\r\n")
        assert b"drained;" in raw
        assert raw.endswith(b"0\r\n\r\n")
        assert seen["drain_user"] == "alice@example.org"
        assert seen["query"] == "refused"
        assert seen["drain_ctx"] is seen["handler_ctx"]

    def test_head_on_streaming_route_never_drains_the_stream(self):
        with serve(build_app()) as handle:
            raw = raw_exchange(
                handle.port,
                b"HEAD /leak HTTP/1.1\r\nHost: h\r\n"
                b"Connection: close\r\n\r\n")
            assert raw.startswith(b"HTTP/1.1 200 ")
            assert b"s3cret" not in raw
            assert raw.split(b"\r\n\r\n", 1)[1] == b""  # no body at all

    def test_pipelined_head_then_get_reads_as_two_responses(self):
        """A HEAD response ends at its blank line (RFC 9112 §6.3): no
        chunked terminator may follow it, or the next response on the
        connection starts with stray body bytes."""
        with serve(build_app()) as handle:
            raw = raw_exchange(
                handle.port,
                b"HEAD /leak HTTP/1.1\r\nHost: h\r\n\r\n"
                b"GET /hello HTTP/1.1\r\nHost: h\r\n"
                b"Connection: close\r\n\r\n")
        head, rest = raw.split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"Transfer-Encoding: chunked" in head
        assert rest.startswith(b"HTTP/1.1 200 ")
        assert rest.endswith(b"hello over the wire")
        assert b"s3cret" not in raw

    def test_stream_failing_mid_body_truncates_and_closes(self):
        """An exception from the stream after the head is buffered ends the
        response like a mid-stream violation: the frames already cleared
        leave, no terminating frame and no second status line follow, and
        the connection closes; the server keeps serving."""
        app = build_app()

        @app.route("/stream-bug")
        def stream_bug(request, response):
            def chunks():
                yield "first piece\n"
                raise ValueError("stream bug")
            return Response().stream(chunks())

        with serve(app) as handle:
            raw = raw_exchange(
                handle.port,
                b"GET /stream-bug HTTP/1.1\r\nHost: h\r\n\r\n"
                b"GET /hello HTTP/1.1\r\nHost: h\r\n\r\n")
            head, body = raw.split(b"\r\n\r\n", 1)
            assert head.startswith(b"HTTP/1.1 200 ")
            assert b"Transfer-Encoding: chunked" in head
            assert body == b"c\r\nfirst piece\n\r\n"  # one frame, no terminator
            assert raw.count(b"HTTP/1.1 ") == 1
            raw = raw_exchange(handle.port,
                               b"GET /hello HTTP/1.1\r\nHost: h\r\n\r\n")
            assert raw.startswith(b"HTTP/1.1 200 ")
            assert raw.endswith(b"hello over the wire")


class TestTimeoutsAndDisconnects:
    def test_slowloris_half_request_gets_408(self):
        with serve(build_app(), read_timeout=0.4) as handle:
            with socket.create_connection(("127.0.0.1", handle.port),
                                          timeout=5) as sock:
                sock.sendall(b"GET /hel")  # the request never completes
                received = b""
                while True:
                    data = sock.recv(65536)
                    if not data:
                        break
                    received += data
                assert received.startswith(b"HTTP/1.1 408 ")

    def test_idle_keep_alive_connection_closes_quietly(self):
        with serve(build_app(), idle_timeout=0.3) as handle:
            with socket.create_connection(("127.0.0.1", handle.port),
                                          timeout=5) as sock:
                assert sock.recv(65536) == b""  # EOF, no 408, no noise

    def test_pipelined_requests_then_half_close_get_both_answers(self):
        """The client sends two keep-alive requests and shuts its sending
        side: both are answered, then the server closes."""
        with serve(build_app(), user_header="x-resin-user") as handle:
            raw = raw_exchange(
                handle.port,
                b"GET /hello HTTP/1.1\r\nHost: h\r\n\r\n"
                b"GET /whoami HTTP/1.1\r\nHost: h\r\n"
                b"X-Resin-User: bob\r\n\r\n")
        assert raw.count(b"HTTP/1.1 200 ") == 2
        assert raw.index(b"hello over the wire") < raw.index(b"user=bob")
        assert raw.endswith(b"user=bob")
        assert b"Connection: close" not in raw

    def test_client_that_stops_reading_is_aborted_after_write_timeout(self):
        """A client that asks for a huge stream and reads nothing stalls its
        connection only: the loop keeps serving a second connection, and
        after ``write_timeout`` the stalled one is aborted, its stream no
        longer drained and its body unterminated."""
        app = build_app()
        piece = "x" * 65536
        produced = []

        @app.route("/flood")
        def flood(request, response):
            def chunks():
                while len(produced) < 1024:  # 64 MiB: far past any buffer
                    produced.append(1)
                    yield piece
            return Response().stream(chunks())

        with serve(app, write_timeout=0.5) as handle:
            with socket.create_connection(("127.0.0.1", handle.port),
                                          timeout=10) as stalled:
                stalled.sendall(b"GET /flood HTTP/1.1\r\nHost: h\r\n\r\n")
                deadline = time.monotonic() + 5
                while not produced and time.monotonic() < deadline:
                    time.sleep(0.01)
                raw = raw_exchange(handle.port,
                                   b"GET /hello HTTP/1.1\r\nHost: h\r\n\r\n")
                assert raw.endswith(b"hello over the wire")
                time.sleep(1.5)  # past write_timeout, still not reading
                stopped_at = len(produced)
                received = b""
                try:
                    while True:
                        data = stalled.recv(1 << 20)
                        if not data:
                            break
                        received += data
                except ConnectionResetError:
                    pass  # the abort resets the connection
        assert 0 < stopped_at == len(produced) < 1024
        assert not received.endswith(b"0\r\n\r\n")

    def test_client_disconnect_mid_body_leaves_server_healthy(self):
        with serve(build_app()) as handle:
            with socket.create_connection(("127.0.0.1", handle.port),
                                          timeout=5) as sock:
                sock.sendall(b"POST /echo HTTP/1.1\r\nHost: h\r\n"
                             b"Content-Length: 100\r\n\r\nonly-a-few")
            # The next connection is served normally.
            raw = raw_exchange(handle.port,
                               b"GET /hello HTTP/1.1\r\nHost: h\r\n\r\n")
            assert b"hello over the wire" in raw


class TestBackpressureAndDrain:
    def test_concurrent_connections_under_small_in_flight_bound(self):
        """Sixteen clients against a 2-slot dispatcher: every request is
        served (excess admission waits on the semaphore, reads pause)."""
        env = Environment()
        app = build_app(env)

        @app.route("/slow")
        def slow(request, response):
            time.sleep(0.02)
            return Response("slept")

        outcomes = []
        with serve(app, workers=2, max_in_flight=2) as handle:
            def client():
                conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                                  timeout=10)
                try:
                    for _ in range(2):
                        conn.request("GET", "/slow")
                        reply = conn.getresponse()
                        outcomes.append((reply.status, reply.read()))
                finally:
                    conn.close()

            threads = [threading.Thread(target=client) for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert len(outcomes) == 32
        assert all(status == 200 and body == b"slept"
                   for status, body in outcomes)

    def test_connection_reads_nothing_while_its_request_is_dispatched(self):
        """Bytes that arrive while a request is in its handler pause the
        transport's reading; the connection reads again once the response
        is written and it waits for the next request."""
        app = build_app()
        entered = threading.Event()
        release = threading.Event()

        @app.route("/block")
        def block(request, response):
            entered.set()
            release.wait(5)
            return Response("unblocked")

        async def scenario():
            loop = asyncio.get_running_loop()
            async with HTTPServer(app, idle_timeout=5.0) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"GET /block HTTP/1.1\r\nHost: h\r\n\r\n")
                assert await loop.run_in_executor(None, entered.wait, 5)
                [connection] = server._connections
                writer.write(b"GET /hello HTTP/1.1\r\nHost: h\r\n\r\n")
                for _ in range(500):  # until the pipelined bytes arrive
                    if connection.parser.buffered:
                        break
                    await asyncio.sleep(0.01)
                reading_while_busy = connection.transport.is_reading()
                release.set()
                await reader.readuntil(b"unblocked")
                await reader.readuntil(b"hello over the wire")
                reading_after = connection.transport.is_reading()
                writer.close()
            return reading_while_busy, reading_after

        assert asyncio.run(scenario()) == (False, True)

    def test_connection_waiting_on_a_stalled_write_reads_nothing(self):
        """A client sends keep-alive requests one at a time and reads no
        answers until the server's writes stall, then floods the socket.
        The connection stops reading, so the flood stays in the kernel:
        the parser holds at most one transport read (256 KiB) of it."""
        app = build_app()

        @app.route("/page")
        def page(request, response):
            # Under the connection's flush threshold: the response leaves
            # only when the task next waits for a request.
            return Response("x" * 40000)

        async def scenario():
            async with HTTPServer(app, idle_timeout=5.0,
                                  write_timeout=5.0) as server:
                # The client's stream reader stops reading at its own limit.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                connection = None
                for served in range(1, 201):
                    writer.write(b"GET /page HTTP/1.1\r\nHost: h\r\n\r\n")
                    for _ in range(500):
                        if connection is None and server._connections:
                            [connection] = server._connections
                        if connection and connection.requests_served == served:
                            break
                        await asyncio.sleep(0.005)
                    if connection._writing_paused:
                        break
                stalled = connection._writing_paused
                writer.write(b"x" * (4 << 20))
                for _ in range(200):  # until the flood reaches the server
                    if not connection.transport.is_reading():
                        break
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.1)  # room for any further reads
                outcome = (stalled, connection.transport.is_reading(),
                           connection.parser.buffered)
                writer.transport.abort()
            return outcome

        stalled, reading, buffered = asyncio.run(scenario())
        assert stalled
        assert not reading
        assert buffered <= 256 * 1024

    def test_sequential_requests_on_one_connection_start_one_worker(self):
        before = set(threading.enumerate())
        with serve(build_app(), workers=4) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                              timeout=5)
            try:
                for _ in range(20):
                    conn.request("GET", "/hello")
                    assert conn.getresponse().read() == b"hello over the wire"
            finally:
                conn.close()
            workers = [thread for thread in threading.enumerate()
                       if thread not in before
                       and thread.name.startswith("resin-async")]
        assert len(workers) == 1

    def test_drain_closes_idle_keep_alive_connections(self):
        handle = serve(build_app())
        sock = socket.create_connection(("127.0.0.1", handle.port), timeout=5)
        try:
            sock.sendall(b"GET /hello HTTP/1.1\r\nHost: h\r\n\r\n")
            first = sock.recv(65536)
            assert first.startswith(b"HTTP/1.1 200 ")
            handle.close()  # drain: the parked keep-alive socket is closed
            sock.settimeout(5)
            leftover = b"x"
            try:
                while leftover:
                    leftover = sock.recv(65536)
            except (ConnectionError, OSError):
                pass  # an abort may surface as ECONNRESET — equally closed
        finally:
            sock.close()

    def test_close_is_idempotent(self):
        handle = serve(build_app())
        handle.close()
        handle.close()


class TestEntryPoints:
    def test_resin_serve_returns_a_live_handle(self):
        env = Environment()
        app = build_app(env)
        with Resin(env).serve(app) as handle:
            assert handle.url.startswith("http://127.0.0.1:")
            raw = raw_exchange(handle.port,
                               b"GET /hello HTTP/1.1\r\nHost: h\r\n\r\n")
            assert b"hello over the wire" in raw

    def test_scoped_middleware_over_http(self):
        env = Environment()
        app = build_app(env)
        seen = []

        @app.middleware(prefix="/admin")
        def audit(request):
            seen.append(request.path)
            return None

        @app.route("/admin/panel")
        def panel(request, response):
            return Response("panel")

        with serve(app) as handle:
            for target in (b"/hello", b"/admin/panel"):
                raw_exchange(handle.port,
                             b"GET " + target + b" HTTP/1.1\r\n"
                             b"Host: h\r\n\r\n")
        assert seen == ["/admin/panel"]

    def test_each_socket_request_draws_one_request_id(self):
        """The connection enters each request once; the dispatcher and the
        application reuse that context, so ids advance by one per request
        and the handler's context is the request's own."""
        env = Environment()
        app = build_app(env)

        @app.route("/rid")
        def rid(request, response):
            rctx = current_request()
            return Response(f"id={request.id};ctx={rctx.request_id};"
                            f"own={rctx.request is request}")

        with serve(app) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                              timeout=5)
            try:
                bodies = []
                for _ in range(3):
                    conn.request("GET", "/rid")
                    bodies.append(conn.getresponse().read())
            finally:
                conn.close()
        assert bodies == [f"id={i};ctx={i};own=True".encode()
                          for i in (1, 2, 3)]
        assert env.next_request_id() == 4

    def test_serve_async_context_manager_on_a_loop(self):
        import asyncio

        env = Environment()
        app = build_app(env)

        async def scenario():
            async with Resin(env).serve_async(app) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"GET /hello HTTP/1.1\r\nHost: h\r\n"
                             b"Connection: close\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return raw

        raw = asyncio.run(scenario())
        assert b"hello over the wire" in raw
