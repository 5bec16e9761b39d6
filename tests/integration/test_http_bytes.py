"""Bytes written to the HTTP channel reach the page as decoded text.

A handler may return bytes, write them (or a ``memoryview`` of them), put
them in a ``Response`` or stream them.  The channel decodes them as UTF-8 (invalid sequences become
U+FFFD), on the in-process front end and over the socket alike; the page
never shows their Python repr (``b'...'``).
"""

import http.client

import pytest

from repro.environment import Environment
from repro.server.http import HTTPServer, ServerHandle
from repro.web.app import WebApplication
from repro.web.request import Request
from repro.web.response import Response

#: Route -> the body a browser must receive.
EXPECTED = {
    "/returned": "café bytes",
    "/written": "raw bytes �",
    "/chunk": "café chunk",
    "/stream": "one;café;",
    "/astream": "async;café;",
    "/view": "café view",
}


def build_app():
    app = WebApplication(Environment(), "bytes-app")

    @app.route("/returned")
    def returned(request, response):
        return b"caf\xc3\xa9 bytes"

    @app.route("/written")
    def written(request, response):
        response.write(b"raw bytes ")
        response.write(bytearray(b"\xff"))

    @app.route("/view")
    def view(request, response):
        response.write(memoryview(b"caf\xc3\xa9 view"))

    @app.route("/chunk")
    def chunk(request, response):
        return Response(b"caf\xc3\xa9 chunk").header("X-Bytes", b"raw value")

    @app.route("/stream")
    def stream(request, response):
        return Response().stream(iter([b"one;", b"caf\xc3\xa9;"]))

    @app.route("/astream")
    def astream(request, response):
        async def pieces():
            yield b"async;"
            yield b"caf\xc3\xa9;"

        return Response().stream(pieces())

    return app


@pytest.mark.parametrize("path", sorted(EXPECTED))
def test_in_process_bytes_are_decoded(path):
    channel = build_app().handle(Request(path))
    assert channel.body() == EXPECTED[path]


def test_in_process_bytes_header_is_decoded():
    channel = build_app().handle(Request("/chunk"))
    assert ("X-Bytes", "raw value") in channel.headers


def test_socket_bytes_are_decoded():
    with ServerHandle(HTTPServer(build_app(), idle_timeout=5.0)).start() as handle:
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=5)
        try:
            for path, body in sorted(EXPECTED.items()):
                conn.request("GET", path)
                reply = conn.getresponse()
                assert reply.status == 200, path
                assert reply.read() == body.encode("utf-8"), path
                if path == "/chunk":
                    assert reply.getheader("X-Bytes") == "raw value"
        finally:
            conn.close()
