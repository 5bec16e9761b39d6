"""Unit tests for the routing subsystem: patterns, converters, 404-vs-405,
the middleware pipeline, the Response object and the deprecation shims."""

import pytest

from repro.core.api import policy_add, policy_get
from repro.core.exceptions import DisclosureViolation, HTTPError
from repro.policies import PasswordPolicy, UntrustedData
from repro.web import (CatchViolationsMiddleware, MethodNotAllowed,
                       Middleware, Request, Response, Router,
                       SessionMiddleware, UntrustedInputMiddleware,
                       WebApplication)
from repro.web.routing import Route


class TestRoutePatterns:
    def test_literal_route_matches_exactly(self):
        route = Route("/page", lambda req, resp: None)
        assert route.match_path("/page") == {}
        assert route.match_path("/page/") is None
        assert route.match_path("/pages") is None

    def test_default_converter_is_str_and_stops_at_slash(self):
        route = Route("/paper/<pid>", lambda req, resp, pid: None)
        assert route.match_path("/paper/42") == {"pid": "42"}
        assert route.match_path("/paper/a/b") is None

    def test_int_converter_types_the_parameter(self):
        route = Route("/paper/<int:pid>", lambda req, resp, pid: None)
        assert route.match_path("/paper/42") == {"pid": 42}

    def test_int_converter_failure_means_no_match(self):
        route = Route("/paper/<int:pid>", lambda req, resp, pid: None)
        assert route.match_path("/paper/abc") is None
        assert route.match_path("/paper/-3") is None

    def test_float_converter(self):
        route = Route("/score/<float:value>", lambda *a, **k: None)
        assert route.match_path("/score/2.5") == {"value": 2.5}
        assert route.match_path("/score/xyz") is None

    def test_path_converter_spans_slashes(self):
        route = Route("/wiki/<path:name>", lambda req, resp, name: None)
        assert route.match_path("/wiki/Front/Page") == {"name": "Front/Page"}

    def test_multiple_parameters(self):
        route = Route("/f/<int:fid>/m/<int:mid>", lambda *a, **k: None)
        assert route.match_path("/f/1/m/2") == {"fid": 1, "mid": 2}

    def test_unknown_converter_rejected(self):
        with pytest.raises(ValueError):
            Route("/x/<uuid:z>", lambda *a, **k: None)

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(ValueError):
            Route("/x/<a>/<a>", lambda *a, **k: None)

    def test_methods_normalized_and_head_implied_by_get(self):
        route = Route("/x", lambda *a, **k: None, methods=["get", "post"])
        assert route.allows("GET") and route.allows("POST")
        assert route.allows("HEAD")
        assert not route.allows("DELETE")

    def test_methods_none_means_any(self):
        route = Route("/x", lambda *a, **k: None, methods=None)
        assert route.allows("PATCH")


class TestRouter:
    def test_first_match_wins_in_registration_order(self):
        router = Router()
        router.add("/wiki/<path:name>/raw", lambda *a, **k: None, name="raw")
        router.add("/wiki/<path:name>", lambda *a, **k: None, name="view")
        assert router.match("/wiki/A/B/raw").route.name == "raw"
        assert router.match("/wiki/A/B").route.name == "view"

    def test_no_path_match_returns_none(self):
        router = Router()
        router.add("/a", lambda *a, **k: None)
        assert router.match("/b") is None

    def test_method_mismatch_raises_405_with_allowed_set(self):
        router = Router()
        router.add("/a", lambda *a, **k: None, methods=["GET"])
        router.add("/a", lambda *a, **k: None, methods=["POST"])
        with pytest.raises(MethodNotAllowed) as excinfo:
            router.match("/a", "DELETE")
        assert excinfo.value.status == 405
        assert excinfo.value.allowed == ("GET", "HEAD", "POST")

    def test_same_pattern_split_by_method(self):
        router = Router()
        router.add("/page", lambda *a, **k: None, methods=["GET"], name="view")
        router.add("/page", lambda *a, **k: None, methods=["POST"], name="edit")
        assert router.match("/page", "GET").route.name == "view"
        assert router.match("/page", "POST").route.name == "edit"

    def test_literal_lookup(self):
        router = Router()

        def handler(req, resp):
            return None

        router.add("/a/<b>", handler)
        assert router.literal("/a/<b>").handler is handler
        assert router.literal("/nope") is None


class TestDispatch:
    def test_route_params_passed_to_handler(self, env):
        app = WebApplication(env)

        @app.route("/paper/<int:pid>", methods=["GET", "POST"])
        def paper(request, response, pid):
            response.write(f"{request.method} paper {pid} ({type(pid).__name__})")

        assert app.handle(Request("/paper/7")).body() == "GET paper 7 (int)"
        assert (app.handle(Request("/paper/7", method="POST")).body()
                == "POST paper 7 (int)")

    def test_converter_failure_is_404_not_handler_error(self, env):
        app = WebApplication(env)

        @app.route("/paper/<int:pid>")
        def paper(request, response, pid):
            raise AssertionError("handler must not run")

        assert app.handle(Request("/paper/abc")).status == 404

    def test_405_vs_404(self, env):
        app = WebApplication(env)

        @app.route("/page", methods=["GET"])
        def page(request, response):
            response.write("ok")

        missing = app.handle(Request("/nothing"))
        wrong_method = app.handle(Request("/page", method="DELETE"))
        assert missing.status == 404
        assert wrong_method.status == 405
        assert ("Allow", "GET, HEAD") in wrong_method.headers

    def test_handler_string_return_is_written_through_the_boundary(self, env):
        app = WebApplication(env)
        secret = policy_add("pw", PasswordPolicy("owner@example.org"))

        @app.route("/leak")
        def leak(request, response):
            return "dump: " + secret

        with pytest.raises(DisclosureViolation):
            app.handle(Request("/leak", user="mallory"))

    def test_handler_response_return_applied(self, env):
        app = WebApplication(env)

        @app.route("/made")
        def made(request, response):
            return Response("created", status=201).header("X-Kind", "demo")

        result = app.handle(Request("/made"))
        assert result.status == 201
        assert result.body() == "created"
        assert ("X-Kind", "demo") in result.headers

    def test_response_redirect(self, env):
        app = WebApplication(env)

        @app.route("/old")
        def old(request, response):
            return Response.redirect("/new")

        result = app.handle(Request("/old"))
        assert result.status == 302
        assert ("Location", "/new") in result.headers

    def test_request_context_records_route(self, env):
        from repro.core.request_context import current_request
        app = WebApplication(env)
        seen = {}

        @app.route("/paper/<int:pid>", name="paper-view")
        def paper(request, response, pid):
            rctx = current_request()
            seen["route"] = rctx.route
            seen["params"] = dict(rctx.route_params)

        app.handle(Request("/paper/3"))
        assert seen == {"route": "paper-view", "params": {"pid": 3}}


class TestMiddleware:
    def test_request_phase_order_and_response_phase_reversed(self, env):
        app = WebApplication(env)
        order = []

        class Recorder(Middleware):
            def __init__(self, tag):
                self.tag = tag

            def process_request(self, request, response):
                order.append(f"req-{self.tag}")

            def process_response(self, request, response):
                order.append(f"resp-{self.tag}")

        app.middleware(Recorder("a"))
        app.middleware(Recorder("b"))

        @app.route("/x")
        def x(request, response):
            order.append("handler")

        app.handle(Request("/x"))
        assert order == ["req-a", "req-b", "handler", "resp-b", "resp-a"]

    def test_short_circuit_skips_later_stages_and_handler(self, env):
        app = WebApplication(env)
        order = []

        @app.middleware
        def first(request, response):
            order.append("first")

        @app.middleware
        def gate(request, response):
            order.append("gate")
            return Response("denied", status=403)

        @app.middleware
        def never(request, response):
            order.append("never")

        @app.route("/x")
        def x(request, response):
            order.append("handler")

        result = app.handle(Request("/x"))
        assert result.status == 403
        assert result.body() == "denied"
        assert order == ["first", "gate"]

    def test_response_phase_runs_only_for_started_middlewares(self, env):
        app = WebApplication(env)
        order = []

        class Tail(Middleware):
            def process_response(self, request, response):
                order.append("tail-resp")

        @app.middleware
        def gate(request, response):
            return True  # short-circuit: response already complete

        app.middleware(Tail())

        @app.route("/x")
        def x(request, response):
            order.append("handler")

        app.handle(Request("/x"))
        assert order == []  # Tail never started, handler skipped

    def test_function_middleware_single_argument_form(self, env):
        app = WebApplication(env)
        seen = []

        @app.middleware
        def single(request):
            seen.append(request.path)

        @app.route("/x")
        def x(request, response):
            response.write("ok")

        app.handle(Request("/x"))
        assert seen == ["/x"]

    def test_untrusted_input_middleware_marks_params(self, env):
        app = WebApplication(env)
        app.middleware(UntrustedInputMiddleware())

        @app.route("/echo")
        def echo(request, response):
            assert policy_get(request.params["q"]).has_type(UntrustedData)
            response.write("ok")

        assert app.handle(Request("/echo", params={"q": "x"})).body() == "ok"

    def test_session_middleware_resolves_user(self, env):
        app = WebApplication(env)
        app.middleware(SessionMiddleware())
        session = env.sessions.create(user="alice")

        @app.route("/whoami")
        def whoami(request, response):
            sid = request.session.sid if request.session else "-"
            response.write(f"{request.user} sid={sid}")

        body = app.handle(
            Request("/whoami", cookies={"sid": session.sid})).body()
        assert body == f"alice sid={session.sid}"
        # no cookie: no session, request stays anonymous
        anonymous = app.handle(Request("/whoami", cookies={}))
        assert anonymous.body() == "None sid=-"

    def test_session_user_reaches_policy_checks(self, env):
        """A middleware-resolved principal must be the one policies see."""
        app = WebApplication(env)
        app.middleware(SessionMiddleware())
        secret = policy_add("pw", PasswordPolicy("owner@example.org",
                                                 allow_chair=False))

        @app.route("/dump")
        def dump(request, response):
            response.write(secret)

        sid = env.sessions.create(user="mallory").sid
        with pytest.raises(DisclosureViolation):
            app.handle(Request("/dump", cookies={"sid": sid}))

    def test_catch_violations_middleware_maps_to_403(self, env):
        app = WebApplication(env)
        app.middleware(CatchViolationsMiddleware())
        secret = policy_add("pw", PasswordPolicy("owner@example.org"))

        @app.route("/leak")
        def leak(request, response):
            response.write(secret)

        result = app.handle(Request("/leak", user="mallory"))
        assert result.status == 403
        assert "Forbidden" in result.body()

    def test_exception_hook_not_consulted_for_http_errors_mapping(self, env):
        app = WebApplication(env)
        app.middleware(CatchViolationsMiddleware())

        @app.route("/bad")
        def bad(request, response):
            raise HTTPError(400, "nope")

        assert app.handle(Request("/bad")).status == 400


class TestStaticTraversal:
    def test_crafted_dotdot_url_cannot_escape_the_mount(self, env):
        env.fs.mkdir("/www/docroot", parents=True)
        env.fs.write_text("/www/docroot/page.html", "public")
        env.fs.write_text("/www/secret.txt", "SECRET")
        app = WebApplication(env)
        app.add_static_mount("/static", "/www/docroot")
        assert app.handle(Request("/static/page.html")).body() == "public"
        for payload in ("/static/../secret.txt",
                        "/static/a/../../secret.txt",
                        "/static/....//../secret.txt"):
            response = app.handle(Request(payload))
            assert response.status == 404, payload
            assert "SECRET" not in response.body()

    def test_inside_mount_dotdot_still_serves(self, env):
        env.fs.mkdir("/www/docroot/sub", parents=True)
        env.fs.write_text("/www/docroot/page.html", "public")
        app = WebApplication(env)
        app.add_static_mount("/static", "/www/docroot")
        assert app.handle(
            Request("/static/sub/../page.html")).body() == "public"


class TestResinFacade:
    def test_resin_app_builds_bound_application(self, resin):
        app = resin.app("demo")
        assert isinstance(app, WebApplication)
        assert app.env is resin.env
        assert app.name == "demo"


class TestScopedMiddleware:
    def test_covers_subtree_boundaries_exactly(self):
        from repro.web import ScopedMiddleware
        scoped = ScopedMiddleware("/admin", lambda request, response: None)
        assert scoped.covers("/admin")
        assert scoped.covers("/admin/panel")
        assert scoped.covers("/admin/a/b")
        assert not scoped.covers("/administrator")
        assert not scoped.covers("/public")
        assert not scoped.covers("/")

    def test_prefix_is_normalized(self):
        from repro.web import ScopedMiddleware
        scoped = ScopedMiddleware("admin/", lambda request, response: None)
        assert scoped.prefix == "/admin"

    def test_root_prefix_is_rejected(self):
        from repro.web import ScopedMiddleware
        with pytest.raises(ValueError):
            ScopedMiddleware("/", lambda request, response: None)

    def test_non_callable_is_rejected(self):
        from repro.web import ScopedMiddleware
        with pytest.raises(TypeError):
            ScopedMiddleware("/admin", 42)

    def test_all_three_phases_respect_the_scope(self, env):
        from repro.web import ScopedMiddleware
        app = WebApplication(env)
        events = []

        class Recorder(Middleware):
            def process_request(self, request, response):
                events.append(("req", request.path))

            def process_response(self, request, response):
                events.append(("resp", request.path))

            def process_exception(self, request, response, exc):
                events.append(("exc", request.path))

        app.middleware(ScopedMiddleware("/admin", Recorder()))

        @app.route("/admin/panel")
        def panel(request, response):
            response.write("panel")

        @app.route("/public")
        def public(request, response):
            response.write("public")

        app.handle(Request("/public"))
        assert events == []
        app.handle(Request("/admin/panel"))
        assert events == [("req", "/admin/panel"), ("resp", "/admin/panel")]

    def test_app_middleware_prefix_keyword_builds_a_scope(self, env):
        app = WebApplication(env)
        seen = []

        @app.middleware(prefix="/api")
        def tag(request, response):
            seen.append(request.path)

        @app.route("/api/v1")
        def v1(request, response):
            response.write("v1")

        @app.route("/home")
        def home(request, response):
            response.write("home")

        app.handle(Request("/home"))
        app.handle(Request("/api/v1"))
        assert seen == ["/api/v1"]

    def test_short_circuit_still_works_inside_the_scope(self, env):
        from repro.web import ScopedMiddleware
        app = WebApplication(env)

        def gate(request, response):
            return Response("denied", status=403)

        app.middleware(ScopedMiddleware("/admin", gate))

        @app.route("/admin/panel")
        def panel(request, response):
            response.write("panel")

        @app.route("/open")
        def open_page(request, response):
            response.write("open")

        assert app.handle(Request("/admin/panel")).status == 403
        assert app.handle(Request("/open")).body() == "open"

    def test_bind_propagates_to_the_wrapped_middleware(self, env):
        from repro.web import ScopedMiddleware, SessionMiddleware
        app = WebApplication(env)
        inner = SessionMiddleware()
        app.middleware(ScopedMiddleware("/account", inner))
        assert inner.app is app


class TestRequestLogMiddleware:
    def test_logs_method_path_user_and_final_status(self, env):
        from repro.web import RequestLogMiddleware
        app = WebApplication(env)
        log = RequestLogMiddleware()
        app.middleware(log)

        @app.route("/page")
        def page(request, response):
            response.write("ok")

        app.handle(Request("/page", user="alice"))
        app.handle(Request("/missing", user="bob"))
        assert log.entries == [(1, "GET", "/page", "alice", 200),
                               (2, "GET", "/missing", "bob", 404)]

    def test_scoped_log_sees_only_its_subtree(self, env):
        from repro.web import RequestLogMiddleware
        app = WebApplication(env)
        entries = []
        app.middleware(RequestLogMiddleware(entries), prefix="/admin")

        @app.route("/admin/panel")
        def panel(request, response):
            response.write("panel")

        @app.route("/public")
        def public(request, response):
            response.write("public")

        app.handle(Request("/public", user="eve"))
        app.handle(Request("/admin/panel", user="root"))
        assert entries == [(2, "GET", "/admin/panel", "root", 200)]
