"""The asyncio front end: per-task request isolation, cancellation,
backpressure, graceful shutdown, and the Table 4 suite behind it."""

import asyncio
import itertools
import sys
import threading
import time

import pytest

from repro.core.exceptions import PolicyViolation
from repro.core.filter import Filter
from repro.core.request_context import current_request
from repro.environment import Environment
from repro.evaluation import table4
from repro.runtime_api import Resin
from repro.server.async_dispatcher import AsyncDispatcher
from repro.web.app import WebApplication
from repro.web.request import Request


def _wait(event, timeout=5):
    """Await a threading.Event without blocking the loop."""
    loop = asyncio.get_running_loop()
    return loop.run_in_executor(None, event.wait, timeout)


class TestServing:
    def test_tasks_keep_their_own_request_context(self):
        env = Environment()
        app = WebApplication(env, "async-whoami")
        barrier = threading.Barrier(4)

        @app.route("/whoami")
        def whoami(request, response):
            barrier.wait(timeout=10)
            env.http.write(f"user={request.user};")
            env.http.write(f"fs={env.fs.request_context.get('user')}")

        users = [f"user-{i}@example.org" for i in range(4)]

        async def main():
            async with AsyncDispatcher(app, workers=4) as server:
                return await server.dispatch_all(
                    [Request("/whoami", user=user) for user in users])

        responses = asyncio.run(main())
        for user, response in zip(users, responses):
            assert response.body() == f"user={user};fs={user}"

    def test_violation_confined_to_its_own_task(self):
        env = Environment()
        app = WebApplication(env, "async-mixed")

        @app.route("/ok")
        def ok(request, response):
            response.write("fine")

        @app.route("/boom")
        def boom(request, response):
            raise PolicyViolation("assertion fired")

        requests = [Request("/boom", user="evil")] * 3 + \
                   [Request("/ok", user=f"u{i}") for i in range(5)]

        async def main():
            async with AsyncDispatcher(app, workers=4) as server:
                return await server.dispatch_all(requests,
                                                 return_exceptions=True)

        results = asyncio.run(main())
        violations = [r for r in results if isinstance(r, PolicyViolation)]
        pages = [r for r in results if not isinstance(r, Exception)]
        assert len(violations) == 3
        assert len(pages) == 5
        assert all("fine" in page.body() for page in pages)

    def test_resin_facade_builds_async_dispatcher(self):
        resin = Resin()
        app = WebApplication(resin.env, "facade")

        @app.route("/ping")
        def ping(request, response):
            response.write(f"pong {request.user}")

        server = resin.async_dispatcher(app, workers=2, max_in_flight=3)
        assert server.app.env is resin.env
        assert server.max_in_flight == 3
        with server:
            [response] = server.run([Request("/ping", user="alice")])
        assert "pong alice" in response.body()


class TestRequestEntry:
    def test_every_request_enters_through_the_application(self, monkeypatch):
        """The dispatcher binds nothing of its own: a sync route hops to the
        executor through ``app.handle`` and an ``async def`` route is awaited
        through ``app.handle_async``, both looked up per request, so methods
        patched onto the class after the dispatcher was built still see
        every request."""
        env = Environment()
        app = WebApplication(env, "async-entry")

        @app.route("/sync")
        def sync_page(request, response):
            response.write(f"sync {request.user}")

        @app.route("/native")
        async def native_page(request, response):
            response.write(f"native {request.user}")

        calls = []
        handle = WebApplication.handle
        handle_async = WebApplication.handle_async

        def traced_handle(self, request):
            calls.append(("handle", request.path))
            return handle(self, request)

        async def traced_handle_async(self, request):
            calls.append(("handle_async", request.path))
            return await handle_async(self, request)

        server = AsyncDispatcher(app, workers=2)
        monkeypatch.setattr(WebApplication, "handle", traced_handle)
        monkeypatch.setattr(WebApplication, "handle_async",
                            traced_handle_async)
        with server:
            pages = server.run([Request("/sync", user="a"),
                                Request("/native", user="b")])
        assert [page.body() for page in pages] == ["sync a", "native b"]
        assert sorted(calls) == [("handle", "/sync"),
                                 ("handle_async", "/native")]


class TestCancellation:
    def test_cancel_mid_request_unwinds_context_and_overlay(self):
        """Cancelling the task abandons the response; the handler thread
        still unwinds its RequestContext, so the request's database filter
        overlay pops and nothing leaks onto the shared base chain."""
        env = Environment()
        app = WebApplication(env, "async-cancel")
        base_filters = len(env.db.filter.filters)
        entered = threading.Event()
        release = threading.Event()
        observed = {}

        @app.route("/slow")
        def slow(request, response):
            env.db.add_filter(Filter())  # request-scoped overlay
            observed["overlay_during"] = len(
                env.db._effective_chain().filters) - base_filters
            entered.set()
            release.wait(5)
            observed["context_bound_after_cancel"] = \
                current_request() is not None
            response.write("never awaited")

        async def main():
            async with AsyncDispatcher(app, workers=2) as server:
                task = server.submit(Request("/slow", user="alice"))
                await _wait(entered)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                release.set()
            # __aexit__ drained the executor: the handler has finished.

        asyncio.run(main())
        assert observed["overlay_during"] == 1
        # The abandoned handler ran to completion on its thread, inside its
        # own (still bound there) context ...
        assert observed["context_bound_after_cancel"] is True
        # ... and its overlay died with the context: the shared chain is
        # untouched and no request is bound to the test thread.
        assert len(env.db.filter.filters) == base_filters
        assert len(env.db._effective_chain().filters) == base_filters
        assert current_request() is None

    def test_cancel_while_queued_never_starts_the_handler(self):
        env = Environment()
        app = WebApplication(env, "async-queued")
        started = []
        release = threading.Event()

        @app.route("/slow")
        def slow(request, response):
            started.append(request.user)
            release.wait(5)
            response.write("done")

        async def main():
            async with AsyncDispatcher(app, workers=1,
                                       max_in_flight=1) as server:
                first = server.submit(Request("/slow", user="running"))
                await asyncio.sleep(0.05)      # let it occupy the only slot
                queued = server.submit(Request("/slow", user="queued"))
                await asyncio.sleep(0.05)      # parked on the semaphore
                queued.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await queued
                release.set()
                await first

        asyncio.run(main())
        assert started == ["running"]


class TestBackpressureAndShutdown:
    def test_max_in_flight_bounds_concurrency(self):
        env = Environment()
        app = WebApplication(env, "async-bounded")
        lock = threading.Lock()
        state = {"now": 0, "peak": 0}

        @app.route("/work")
        def work(request, response):
            with lock:
                state["now"] += 1
                state["peak"] = max(state["peak"], state["now"])
            time.sleep(0.02)
            with lock:
                state["now"] -= 1
            response.write("ok")

        async def main():
            async with AsyncDispatcher(app, workers=8,
                                       max_in_flight=2) as server:
                await server.dispatch_all(
                    [Request("/work", user=f"u{i}") for i in range(10)])

        asyncio.run(main())
        assert state["peak"] <= 2

    def test_rebind_refused_while_direct_dispatch_is_admitted(self):
        """A dispatch() awaiter on one loop holds an admission even though
        it never enters the task set; another loop must not steal the
        semaphore from under it."""
        env = Environment()
        app = WebApplication(env, "async-rebind")
        entered = threading.Event()
        release = threading.Event()

        @app.route("/slow")
        def slow(request, response):
            entered.set()
            release.wait(5)
            response.write("ok")

        server = AsyncDispatcher(app, workers=2)
        result = {}

        def loop_a():
            async def main():
                return await server.dispatch(Request("/slow", user="a"))
            result["response"] = asyncio.run(main())

        thread = threading.Thread(target=loop_a)
        thread.start()
        try:
            assert entered.wait(5)
            with pytest.raises(RuntimeError, match="another event loop"):
                server.run([Request("/slow", user="b")])
        finally:
            release.set()
            thread.join(timeout=5)
        assert "ok" in result["response"].body()
        server.shutdown()

    def test_graceful_shutdown_drains_in_flight_requests(self):
        env = Environment()
        app = WebApplication(env, "async-drain")

        @app.route("/slow")
        def slow(request, response):
            time.sleep(0.05)
            response.write(f"served {request.user}")

        async def main():
            server = AsyncDispatcher(app, workers=4)
            tasks = [server.submit(Request("/slow", user=f"u{i}"))
                     for i in range(4)]
            await server.aclose()              # waits for all four
            assert all(task.done() for task in tasks)
            responses = [task.result() for task in tasks]
            assert all(f"served u{i}" in r.body()
                       for i, r in enumerate(responses))
            with pytest.raises(RuntimeError):
                server.submit(Request("/slow", user="late"))
            with pytest.raises(RuntimeError):
                await server.dispatch(Request("/slow", user="late"))
            await server.aclose()              # idempotent

        asyncio.run(main())

    @pytest.mark.parametrize("close", ["aclose", "shutdown"])
    def test_closing_leaves_no_worker_thread_alive(self, close):
        env = Environment()
        app = WebApplication(env, "async-threads")
        barrier = threading.Barrier(4)  # four handlers at once: four threads

        @app.route("/work")
        def work(request, response):
            barrier.wait(timeout=5)
            response.write("ok")

        before = set(threading.enumerate())

        def workers():
            return [thread for thread in threading.enumerate()
                    if thread not in before
                    and thread.name.startswith("resin-async")]

        server = AsyncDispatcher(app, workers=4)

        async def main():
            await server.dispatch_all(
                [Request("/work", user=f"u{i}") for i in range(4)])
            assert len(workers()) == 4
            if close == "aclose":
                await server.aclose()

        asyncio.run(main())
        if close == "shutdown":
            server.shutdown()
        assert workers() == []

    def test_pool_serves_each_request_once_under_switch_stress(self):
        """Three hundred concurrent sync requests through a three-thread
        pool while threads switch every microsecond: every request is
        served exactly once, in its own response, by at most ``workers``
        threads."""
        env = Environment()
        app = WebApplication(env, "async-stress")
        lock = threading.Lock()
        served = []
        threads = set()

        @app.route("/n/<int:n>")
        def number(request, response, n):
            with lock:
                served.append(n)
                threads.add(threading.current_thread().name)
            response.write(f"n={n}")

        async def main():
            async with AsyncDispatcher(app, workers=3,
                                       max_in_flight=12) as server:
                return await asyncio.wait_for(server.dispatch_all(
                    [Request(f"/n/{i}") for i in range(300)]), timeout=60)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            responses = asyncio.run(main())
        finally:
            sys.setswitchinterval(interval)
        assert [r.body() for r in responses] == [f"n={i}" for i in range(300)]
        assert sorted(served) == list(range(300))
        assert 1 <= len(threads) <= 3

    def test_direct_dispatch_racing_aclose_is_served_or_refused(self):
        """aclose() drains submitted tasks but not direct dispatch()
        awaiters: one that reaches the pool while aclose() stops it is
        either served or refused with RuntimeError, never left queued
        behind the stop, and aclose() returns with no worker alive."""
        env = Environment()
        app = WebApplication(env, "async-close-race")

        @app.route("/n/<int:n>")
        def number(request, response, n):
            response.write(f"n={n}")

        before = set(threading.enumerate())

        async def one_round():
            server = AsyncDispatcher(app, workers=2, max_in_flight=2)
            calls = [asyncio.ensure_future(server.dispatch(Request(f"/n/{i}")))
                     for i in range(20)]
            await asyncio.sleep(0)  # two admitted, the rest on the gate
            await asyncio.wait_for(server.aclose(), timeout=10)
            return await asyncio.wait_for(
                asyncio.gather(*calls, return_exceptions=True), timeout=10)

        async def main():
            # A warm default executor lets a close race the loop closely.
            await asyncio.get_running_loop().run_in_executor(None, int)
            return [await one_round() for _ in range(50)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        # Not asyncio.run: a worker that never exits would hang its
        # executor shutdown instead of failing the test.
        loop = asyncio.new_event_loop()
        try:
            rounds = loop.run_until_complete(main())
        finally:
            loop.close()
            sys.setswitchinterval(interval)
        for outcomes in rounds:
            for n, outcome in enumerate(outcomes):
                if isinstance(outcome, BaseException):
                    assert isinstance(outcome, RuntimeError)
                else:
                    assert outcome.body() == f"n={n}"
        assert not [thread for thread in threading.enumerate()
                    if thread not in before
                    and thread.name.startswith("resin-async")]

    def test_disjoint_table_writes_overlap_across_tasks(self):
        """Two asyncio tasks writing different tables: the second completes
        while the first still holds its own table's lock mid-transaction."""
        env = Environment()
        env.db.execute_unchecked("CREATE TABLE ta (id INTEGER)")
        env.db.execute_unchecked("CREATE TABLE tb (id INTEGER)")
        app = WebApplication(env, "async-tables")
        a_entered = threading.Event()
        release_a = threading.Event()

        @app.route("/write-a")
        def write_a(request, response):
            with env.db.transaction("ta"):
                a_entered.set()
                release_a.wait(5)
                env.db.query("INSERT INTO ta (id) VALUES (1)")
            response.write("a done")

        @app.route("/write-b")
        def write_b(request, response):
            env.db.query("INSERT INTO tb (id) VALUES (2)")
            response.write("b done")

        async def main():
            async with AsyncDispatcher(app, workers=2) as server:
                task_a = server.submit(Request("/write-a", user="a"))
                await _wait(a_entered)
                response_b = await asyncio.wait_for(
                    server.dispatch(Request("/write-b", user="b")), timeout=2)
                assert "b done" in response_b.body()
                release_a.set()
                assert "a done" in (await task_a).body()

        asyncio.run(main())
        assert env.db.query("SELECT count(*) FROM ta").scalar() == 1
        assert env.db.query("SELECT count(*) FROM tb").scalar() == 1


class TestTable4AsyncFrontEnd:
    @pytest.mark.parametrize("use_resin", [False, True])
    def test_async_run_matches_serial_verdicts(self, use_resin, monkeypatch):
        """The in-process row is a threaded run: the scenario handler is
        sync, so the dispatcher spreads the rows over its pool threads."""
        serial = table4.run_all(use_resin)
        threads = set()
        run_scenario = table4.run_scenario
        # The pool hands a job to an idle thread before it starts another,
        # so rows that finish fast could all run on one.  The first two rows
        # wait for each other: the pool must run them on two threads at once.
        first_two = threading.Barrier(2, timeout=10)
        calls = itertools.count()

        def on_thread(scenario, use_resin):
            threads.add(threading.get_ident())
            if next(calls) < 2:
                first_two.wait()
            return run_scenario(scenario, use_resin)

        monkeypatch.setattr(table4, "run_scenario", on_thread)
        concurrent = table4.run_all_concurrent(use_resin, workers=16,
                                               front_end="async")
        assert table4.verdicts(concurrent) == table4.verdicts(serial)
        assert len(threads) > 1
        assert threading.get_ident() not in threads
