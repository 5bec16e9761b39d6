"""Integration tests for loop-native ``async def`` handlers.

The contract under test: a request that resolves to a coroutine handler is
awaited directly on the event loop by ``AsyncDispatcher`` — no executor hop
— inside its own ``RequestContext`` binding, while sync handlers keep the
executor path; cancellation of an in-flight native handler unwinds the
context and its per-request database filter overlay.
"""

import asyncio
import threading

import pytest

from repro.core.exceptions import PolicyViolation
from repro.core.filter import Filter
from repro.core.request_context import current_request
from repro.environment import Environment
from repro.runtime_api import Resin
from repro.server.async_dispatcher import AsyncDispatcher
from repro.web import Request, Response


@pytest.fixture
def resin():
    return Resin(Environment())


def test_native_handler_runs_on_the_loop_thread(resin):
    app = resin.app("native")
    threads = {}

    @app.route("/native")
    async def native(request, response):
        threads["native"] = threading.current_thread()
        await asyncio.sleep(0)
        return "native done"

    @app.route("/sync")
    def sync(request, response):
        threads["sync"] = threading.current_thread()
        response.write("sync done")

    async def main():
        loop_thread = threading.current_thread()
        async with AsyncDispatcher(app, workers=2) as server:
            native_response, sync_response = await server.dispatch_all(
                [Request("/native"), Request("/sync")])
        assert native_response.body() == "native done"
        assert sync_response.body() == "sync done"
        # the coroutine handler never left the loop thread ...
        assert threads["native"] is loop_thread
        # ... while the sync handler took the executor path
        assert threads["sync"] is not loop_thread

    asyncio.run(main())


def test_native_handler_sees_its_request_context(resin):
    app = resin.app("ctx")

    @app.route("/whoami/<int:n>")
    async def whoami(request, response, n):
        rctx = current_request()
        assert rctx is not None and rctx.env is resin.env
        await asyncio.sleep(0.001 * (n % 3))
        return f"{rctx.user}:{rctx.route_params['n']}"

    async def main():
        async with AsyncDispatcher(app, workers=2) as server:
            requests = [Request(f"/whoami/{i}", user=f"user-{i}")
                        for i in range(12)]
            responses = await server.dispatch_all(requests)
        for i, response in enumerate(responses):
            assert response.body() == f"user-{i}:{i}"
        # nothing leaked into the loop's own context
        assert current_request() is None

    asyncio.run(main())


def test_native_handlers_interleave_without_executor_threads(resin):
    """16 concurrent I/O-bound coroutine handlers overlap on ONE worker —
    proof there is no executor hop bounding the concurrency."""
    app = resin.app("overlap")
    in_flight = {"now": 0, "max": 0}

    @app.route("/io")
    async def io(request, response):
        in_flight["now"] += 1
        in_flight["max"] = max(in_flight["max"], in_flight["now"])
        await asyncio.sleep(0.02)
        in_flight["now"] -= 1
        return "ok"

    async def main():
        async with AsyncDispatcher(app, workers=1,
                                   max_in_flight=16) as server:
            responses = await server.dispatch_all(
                [Request("/io") for _ in range(16)])
        assert all(r.body() == "ok" for r in responses)
        assert in_flight["max"] == 16

    asyncio.run(main())


def test_cancelling_native_handler_unwinds_context_and_overlay(resin):
    """Cancel an in-flight ``async def`` handler at its await point: the
    CancelledError must surface through its task only, the RequestContext
    must unbind, and the request's database filter overlay must pop."""
    app = resin.app("cancel")
    db = resin.env.db
    db.execute_unchecked("CREATE TABLE t (id INTEGER)")
    state = {}

    class Recording(Filter):
        def filter_func(self, func, args, kwargs):
            return func(*args, **kwargs)

    @app.route("/slow")
    async def slow(request, response):
        db.add_filter(Recording())        # request-scoped overlay
        state["rctx"] = current_request()
        state["overlay"] = state["rctx"].db_filters(db)
        state["started"].set()
        await asyncio.sleep(30)
        state["finished"] = True

    async def main():
        state["started"] = asyncio.Event()
        async with AsyncDispatcher(app, workers=1) as server:
            task = server.submit(Request("/slow", user="alice"))
            await asyncio.wait_for(state["started"].wait(), timeout=5)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
        # the overlay was installed while the request ran ...
        assert len(state["overlay"]) == 1
        # ... and the context unwound with the cancellation
        assert "finished" not in state
        assert not state["rctx"].active
        assert current_request() is None
        # the shared database no longer sees the request's filter
        db.query("SELECT id FROM t")

    asyncio.run(main())


def test_mixed_native_and_executor_violations_stay_per_request(resin):
    """A PolicyViolation from a native handler surfaces through its own
    task, exactly as the executor path always did."""
    from repro.core.api import policy_add
    from repro.policies.password import PasswordPolicy

    app = resin.app("mixed")
    secret = policy_add("pw", PasswordPolicy("owner@example.org"))

    @app.route("/leak-async")
    async def leak_async(request, response):
        await asyncio.sleep(0)
        return "dump " + secret

    @app.route("/ok-sync")
    def ok_sync(request, response):
        return Response("fine")

    async def main():
        async with AsyncDispatcher(app, workers=2) as server:
            results = await server.dispatch_all(
                [Request("/leak-async", user="mallory"),
                 Request("/ok-sync", user="alice")],
                return_exceptions=True)
        assert isinstance(results[0], PolicyViolation)
        assert results[1].body() == "fine"

    asyncio.run(main())


def test_method_and_params_through_the_async_front_end(resin):
    """405-vs-404 and converter failures behave identically behind the
    event-loop front end."""
    app = resin.app("edges")

    @app.route("/paper/<int:pid>", methods=["GET"])
    async def paper(request, response, pid):
        await asyncio.sleep(0)
        return f"paper {pid}"

    async def main():
        async with AsyncDispatcher(app, workers=2) as server:
            ok, bad_method, bad_param, missing = await server.dispatch_all(
                [Request("/paper/9"),
                 Request("/paper/9", method="DELETE"),
                 Request("/paper/x"),
                 Request("/nope")])
        assert ok.body() == "paper 9"
        assert bad_method.status == 405
        assert bad_param.status == 404
        assert missing.status == 404

    asyncio.run(main())
