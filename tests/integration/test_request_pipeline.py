"""One request pipeline, reached through every entry that serves it.

``WebApplication.handle`` steps the pipeline inline on the calling thread,
``handle_async`` awaits it on the running loop, and the dispatchers and the
socket server choose one of the two per request.  These tests pin that the
entries agree on what a request emits: an exception hook's streamed
response, sync and async stream bodies, coroutine handlers, and a policy
violation in the middle of a stream.
"""

import asyncio
import http.client

import pytest

from repro.core.api import policy_add
from repro.core.exceptions import PolicyViolation
from repro.core.request_context import current_request
from repro.environment import Environment
from repro.policies import PasswordPolicy
from repro.server.async_dispatcher import AsyncDispatcher
from repro.server.dispatcher import Dispatcher
from repro.server.http import HTTPServer, ServerHandle
from repro.web.app import WebApplication
from repro.web.request import Request
from repro.web.response import Response
from repro.web.routing import Middleware

PIECES = ["one;", "two;", "three;"]


# -- the entries: each serves one request and answers (status, body) ----------

def _answer(channel):
    return channel.status, channel.body()


def via_handle(app, request):
    return _answer(app.handle(request))


def via_dispatcher(app, request):
    with Dispatcher(app, workers=1) as server:
        return _answer(server.dispatch(request))


def via_async_dispatcher(app, request):
    async def main():
        async with AsyncDispatcher(app, workers=1) as server:
            # The request's own task: whatever escapes surfaces through it.
            task = asyncio.ensure_future(server.dispatch(request))
            return _answer(await task)
    return asyncio.run(main())


def via_handle_async(app, request):
    return _answer(asyncio.run(app.handle_async(request)))


def via_socket(app, request):
    with ServerHandle(HTTPServer(app, idle_timeout=5.0)).start() as handle:
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=5)
        try:
            conn.request("GET", request.path)
            reply = conn.getresponse()
            return reply.status, reply.read().decode("utf-8")
        finally:
            conn.close()


IN_PROCESS = [
    pytest.param(via_handle, id="handle"),
    pytest.param(via_dispatcher, id="Dispatcher"),
    pytest.param(via_async_dispatcher, id="AsyncDispatcher"),
    pytest.param(via_handle_async, id="handle_async"),
]


# -- exception hooks ------------------------------------------------------------

class Boom(Exception):
    pass


class StreamedErrorPage(Middleware):
    """Maps ``Boom`` to a 500 whose body is an async generator."""

    def process_exception(self, request, response, exc):
        if not isinstance(exc, Boom):
            return None

        async def body():
            yield "mapped;"
        return Response(status=500).stream(body())


def build_hook_app():
    app = WebApplication(Environment(), "hooks")
    app.middleware(StreamedErrorPage())

    @app.route("/boom")
    def boom(request, response):
        raise Boom("sync handler")

    @app.route("/aboom")
    async def aboom(request, response):
        await asyncio.sleep(0)
        raise Boom("coroutine handler")

    return app


@pytest.mark.parametrize("entry, path", [
    pytest.param(via_handle, "/boom", id="handle"),
    pytest.param(via_dispatcher, "/boom", id="Dispatcher"),
    pytest.param(via_async_dispatcher, "/boom",
                 id="AsyncDispatcher-executor"),
    pytest.param(via_async_dispatcher, "/aboom", id="AsyncDispatcher-loop"),
    pytest.param(via_handle_async, "/boom", id="handle_async"),
    pytest.param(via_socket, "/boom", id="socket"),
])
def test_exception_hook_stream_answers_on_every_entry(entry, path):
    """A hook's result goes through the same apply step as a handler's, so
    an async-generator body works on a running loop too."""
    assert entry(build_hook_app(), Request(path)) == (500, "mapped;")


# -- streamed bodies and coroutine handlers --------------------------------------

def pieces(request, pulls):
    """The body pieces; the middle one is a password when the request asks
    for ``secret``.  ``pulls`` records every piece the consumer asked for."""
    middle = PIECES[1]
    if request.param("secret"):
        middle = policy_add("s3cret;", PasswordPolicy("alice@example.org"))
    for piece in (PIECES[0], middle, PIECES[2]):
        pulls.append(str(piece))
        yield piece


async def async_pieces(request, pulls, pause=0.0):
    for piece in pieces(request, pulls):
        if pause:
            await asyncio.sleep(pause)
        yield piece


def build_stream_app(pulls):
    app = WebApplication(Environment(), "streams")

    @app.route("/sync-gen")
    def sync_gen(request, response):
        return Response().stream(pieces(request, pulls))

    @app.route("/async-gen")
    def async_gen(request, response):
        return Response().stream(async_pieces(request, pulls))

    @app.route("/coroutine")
    async def coroutine(request, response):
        await asyncio.sleep(0.001)
        return Response().stream(async_pieces(request, pulls, pause=0.001))

    return app


STREAM_ROUTES = ["/sync-gen", "/async-gen", "/coroutine"]


@pytest.mark.parametrize("path", STREAM_ROUTES)
@pytest.mark.parametrize("entry", IN_PROCESS)
def test_stream_body_arrives_in_order(entry, path):
    pulls = []
    app = build_stream_app(pulls)
    status, body = entry(app, Request(path, user="alice"))
    assert (status, body) == (200, "".join(PIECES))
    assert pulls == PIECES


@pytest.mark.parametrize("path", STREAM_ROUTES)
@pytest.mark.parametrize("entry", IN_PROCESS)
def test_secret_mid_stream_fails_the_request(entry, path):
    """The password fires the assertion at the channel, and the stream is
    never asked for the piece after it."""
    pulls = []
    app = build_stream_app(pulls)
    request = Request(path, user="mallory", params={"secret": "1"})
    with pytest.raises(PolicyViolation):
        entry(app, request)
    assert pulls == ["one;", "s3cret;"]


def test_handle_of_a_sync_stream_runs_no_event_loop(monkeypatch):
    def no_loop(*args, **kwargs):
        raise AssertionError("handle() started an event loop")

    monkeypatch.setattr(asyncio, "run", no_loop)
    monkeypatch.setattr(asyncio, "new_event_loop", no_loop)
    app = build_stream_app([])
    assert via_handle(app, Request("/sync-gen")) == (200, "".join(PIECES))


def test_handle_on_a_running_loop_refuses_a_suspending_request():
    """``handle()`` cannot wait on a loop it is running inside: a coroutine
    handler that suspends is an error, not a hang or an empty body."""
    app = build_stream_app([])

    async def main():
        with pytest.raises(RuntimeError):
            app.handle(Request("/coroutine"))
        assert current_request() is None

    asyncio.run(main())
