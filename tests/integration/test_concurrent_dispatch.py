"""Concurrent dispatch over a shared environment.

N worker threads serve N distinct users from one Environment; per-user taint
and policy state stay isolated, a PolicyViolation in one request never aborts
another, and the 16-worker Table-4 run reaches the same verdicts as the
serial run.
"""

import threading
import time

import pytest

from repro.core.exceptions import AccessDenied, PolicyViolation
from repro.core.request_context import current_request
from repro.environment import Environment
from repro.evaluation import table4
from repro.server.dispatcher import Dispatcher
from repro.web.app import WebApplication
from repro.web.request import Request


class TestRequestIsolation:
    def test_overlapping_requests_keep_their_own_context(self):
        """All workers are provably in flight at once (a barrier makes them
        overlap), yet each sees only its own user in the contextvar-routed
        state (env.http, fs.request_context)."""
        workers = 8
        env = Environment()
        app = WebApplication(env, "barrier-app")
        barrier = threading.Barrier(workers)

        @app.route("/whoami")
        def whoami(request, response):
            barrier.wait(timeout=10)
            # env.http resolves to *this request's* channel, and the fs
            # request context to *this request's* user, even though all
            # eight handlers run simultaneously on the shared environment.
            env.http.write(f"user={request.user};")
            env.http.write(f"fs={env.fs.request_context.get('user')}")

        users = [f"user-{i}@example.org" for i in range(workers)]
        with Dispatcher(app, workers=workers) as server:
            futures = [server.submit(Request("/whoami", user=u))
                       for u in users]
            bodies = {u: f.result().body() for u, f in zip(users, futures)}
        for user in users:
            assert bodies[user] == f"user={user};fs={user}"

    def test_phpbb_policy_enforcement_per_user(self):
        """The phpBB read-ACL assertion holds per request: mallory's requests
        are blocked by the message policy while admin's (interleaved on the
        same board, same pool) keep working."""
        from repro.apps.phpbb import PhpBB
        board = PhpBB(Environment(), use_read_assertion=True,
                      use_xss_assertion=False)
        board.create_forum(1, "public")
        board.create_forum(2, "staff", allowed_users=["admin"])
        board.post_message(10, 2, "admin", "salaries", "the secret salaries")
        board.post_message(11, 1, "admin", "welcome", "hello world")

        app = WebApplication(board.env, "phpbb")

        @app.route("/printable")
        def printable(request, response):
            # The known-buggy path: no explicit permission check — only the
            # RESIN policy stands between the message and the browser.
            board.printable_view(int(request.param("id")), request.user,
                                 response)

        requests = []
        for _ in range(8):
            requests.append(Request("/printable", params={"id": "10"},
                                    user="admin"))
            requests.append(Request("/printable", params={"id": "10"},
                                    user="mallory"))
            requests.append(Request("/printable", params={"id": "11"},
                                    user="mallory"))
        with Dispatcher(app, workers=16) as server:
            results = server.dispatch_all(requests, return_exceptions=True)

        for request, result in zip(requests, results):
            if request.user == "admin":
                assert "secret salaries" in result.body()
            elif request.param("id") == "10":
                # One request's violation is confined to its own future.
                assert isinstance(result, AccessDenied)
            else:
                assert "hello world" in result.body()
                assert "secret" not in result.body()

    def test_hotcrp_review_isolation(self):
        """Concurrent HotCRP review-page requests: PC members see the
        unreleased review, outsiders get the buffered 'hidden' substitute —
        and never each other's output."""
        from repro.apps.hotcrp import HotCRP
        site = HotCRP(Environment(), use_resin=True)
        site.register_user("pc@example.org", "pw", is_pc=True)
        site.register_user("out@example.org", "pw")
        site.submit_paper(1, "Data Flow Assertions", "abstract",
                          ["a@authors.org"], anonymous=True)
        site.add_review(1, "pc@example.org", "Strong accept; novel.",
                        released=False)

        app = WebApplication(site.env, "hotcrp")

        @app.route("/review")
        def review(request, response):
            # The application's auth step resolves PC membership into the
            # response context (what HotCRP's _response_for does).
            response.context["is_pc"] = site.is_pc_member(request.user)
            site.review_page(1, request.user, response)

        users = ["pc@example.org", "out@example.org"] * 8
        with Dispatcher(app, workers=16) as server:
            responses = server.dispatch_all(
                Request("/review", user=u) for u in users)

        for user, response in zip(users, responses):
            if user == "pc@example.org":
                assert "Strong accept" in response.body()
            else:
                assert "Strong accept" not in response.body()
                assert "hidden" in response.body()

    def test_violation_in_one_request_never_aborts_another(self):
        env = Environment()
        app = WebApplication(env, "mixed")
        started = []

        @app.route("/ok")
        def ok(request, response):
            started.append(request.user)
            response.write("fine")

        @app.route("/boom")
        def boom(request, response):
            raise PolicyViolation("assertion fired")

        requests = [Request("/boom", user="evil")] * 4 + \
                   [Request("/ok", user=f"u{i}") for i in range(12)]
        with Dispatcher(app, workers=16) as server:
            results = server.dispatch_all(requests, return_exceptions=True)
        violations = [r for r in results if isinstance(r, PolicyViolation)]
        pages = [r for r in results if not isinstance(r, Exception)]
        assert len(violations) == 4
        assert len(pages) == 12
        assert all("fine" in page.body() for page in pages)
        assert sorted(started) == sorted(f"u{i}" for i in range(12))


class TestRequestEntry:
    def test_workers_look_up_app_handle_per_request(self, monkeypatch):
        """The dispatcher binds nothing of its own: each request runs
        ``app.handle``, looked up when the request is submitted, so a method
        patched onto the class after the pool started (what a tracer does)
        sees every later request, and the handler runs in the context the
        application's entry bound for that very request."""
        env = Environment()
        app = WebApplication(env, "entry-app")

        @app.route("/whoami")
        def whoami(request, response):
            rctx = current_request()
            response.write(f"user={request.user};"
                           f"own={rctx.request is request}")

        seen = []
        original = WebApplication.handle

        def traced(self, request):
            seen.append(request.user)
            return original(self, request)

        with Dispatcher(app, workers=2) as server:
            server.dispatch(Request("/whoami", user="before"))
            monkeypatch.setattr(WebApplication, "handle", traced)
            pages = server.dispatch_all(
                [Request("/whoami", user=user) for user in ("a", "b")])
        assert sorted(seen) == ["a", "b"]
        assert [page.body() for page in pages] == [
            "user=a;own=True", "user=b;own=True"]


class TestTable4Concurrent:
    @pytest.mark.parametrize("use_resin", [False, True])
    def test_16_worker_run_matches_serial_verdicts(self, use_resin):
        serial = table4.run_all(use_resin)
        concurrent = table4.run_all_concurrent(use_resin, workers=16)
        assert table4.verdicts(concurrent) == table4.verdicts(serial)

    @pytest.mark.parametrize("use_resin", [False, True])
    def test_socket_front_end_matches_serial_verdicts(self, use_resin):
        """The full Table 4 suite served over real loopback sockets — an
        HTTPServer on a background thread, 8 concurrent http.client
        POSTs — reaches verdicts identical to the in-process runs."""
        serial = table4.run_all(use_resin)
        over_socket = table4.run_all_concurrent(use_resin, workers=8,
                                                front_end="socket")
        assert table4.verdicts(over_socket) == table4.verdicts(serial)


class TestThroughputScaling:
    def test_io_bound_handlers_overlap_across_workers(self):
        """Handlers that wait on (simulated) I/O overlap: 8 requests with a
        20ms backend wait finish in well under the 160ms a serial run needs.
        The full >2x-at-4-workers acceptance check lives in
        benchmarks/bench_async_dispatch.py (its own CI job)."""
        env = Environment()
        app = WebApplication(env, "sleepy")

        @app.route("/page")
        def page(request, response):
            time.sleep(0.02)           # simulated backend latency
            response.write(f"served {request.user}")

        reqs = [Request("/page", user=f"u{i}") for i in range(8)]
        with Dispatcher(app, workers=8) as server:
            start = time.perf_counter()
            responses = server.dispatch_all(reqs)
            elapsed = time.perf_counter() - start
        assert all(f"served u{i}" in r.body()
                   for i, r in enumerate(responses))
        assert elapsed < 8 * 0.02      # strictly less than the serial sum
