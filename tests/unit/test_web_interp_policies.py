"""Unit tests for the web substrate, the interpreter, the standard policies
and the assertion kit."""

import pytest

from repro.core.api import policy_add, policy_get
from repro.core.exceptions import (AccessDenied, DisclosureViolation,
                                   HTTPError, InjectionViolation,
                                   ScriptInjectionViolation)
from repro.interp.filters import InterpreterFilter
from repro.policies import (ACL, CodeApproval, HTMLSanitized,
                            PagePolicy, PasswordPolicy, ReadAccessPolicy,
                            SecretPolicy, SQLSanitized, UntrustedData)
from repro.security import vulndb
from repro.security.assertions import (HTMLGuardFilter,
                                       ResponseSplittingFilter,
                                       SQLGuardFilter, approve_code_file,
                                       install_script_injection_assertion,
                                       mark_request_untrusted, mark_untrusted)
from repro.tracking.propagation import concat
from repro.tracking.tainted_str import TaintedStr, taint_str
from repro.web import (Request, SessionStore, WebApplication, html_escape,
                       json_encode, sql_quote, strip_tags)


class TestSanitizers:
    def test_sql_quote_escapes_and_marks(self):
        result = sql_quote(mark_untrusted("O'Brien"))
        assert str(result) == "O''Brien"
        assert result.has_policy_type(SQLSanitized, every_char=True)
        assert result.has_policy_type(UntrustedData)

    def test_sql_quote_empty(self):
        assert sql_quote("") == ""

    def test_html_escape(self):
        result = html_escape(mark_untrusted('<b a="1">&\'</b>'))
        assert str(result) == "&lt;b a=&quot;1&quot;&gt;&amp;&#x27;&lt;/b&gt;"
        assert result.has_policy_type(HTMLSanitized, every_char=True)

    def test_json_encode(self):
        result = json_encode(mark_untrusted('say "hi"'))
        assert str(result) == '"say \\"hi\\""'
        assert result.has_policy_type(UntrustedData)

    def test_strip_tags(self):
        result = strip_tags(taint_str("<b>bold</b> text", UntrustedData()))
        assert str(result) == "bold text"
        assert result.has_policy_type(UntrustedData, every_char=True)


class TestRequestAndSession:
    def test_request_params(self):
        request = Request("/page", params={"q": "x"}, user="alice")
        assert request.param("q") == "x"
        assert request.param("missing", "default") == "default"
        with pytest.raises(HTTPError):
            request.require("missing")
        assert "alice" in repr(request)

    def test_mark_request_untrusted(self):
        request = Request("/page", params={"q": "x", "n": 3},
                          files={"upload": "content"})
        mark_request_untrusted(request)
        assert policy_get(request.params["q"]).has_type(UntrustedData)
        assert request.params["n"] == 3
        assert policy_get(request.files["upload"]).has_type(UntrustedData)

    def test_session_store(self):
        store = SessionStore()
        session = store.create(user="alice", theme="dark")
        assert store.get(session.sid).user == "alice"
        assert store.get(session.sid)["theme"] == "dark"
        assert store.get(None) is None
        store.destroy(session.sid)
        assert store.get(session.sid) is None
        assert len(store) == 0
        other = store.create()
        other.user = "bob"
        assert other.user == "bob"


class TestWebApplication:
    def test_route_dispatch(self, env):
        app = WebApplication(env)

        @app.route("/hello")
        def hello(request, response):
            response.write(f"hi {request.user}")

        body = app.handle(Request("/hello", user="alice")).body()
        assert body == "hi alice"

    def test_missing_route_is_404(self, env):
        app = WebApplication(env)
        response = app.handle(Request("/nope"))
        assert response.status == 404

    def test_http_error_from_handler(self, env):
        app = WebApplication(env)

        @app.route("/fail")
        def fail(request, response):
            raise HTTPError(400, "bad input")

        assert app.handle(Request("/fail")).status == 400

    def test_policy_violation_propagates_by_default(self, env):
        app = WebApplication(env)
        secret = policy_add("pw", PasswordPolicy("owner@example.org"))

        @app.route("/leak")
        def leak(request, response):
            response.write(secret)

        with pytest.raises(DisclosureViolation):
            app.handle(Request("/leak", user="mallory"))

    def test_policy_violation_becomes_403_when_caught(self, env):
        from repro.web import CatchViolationsMiddleware
        app = WebApplication(env)
        app.middleware(CatchViolationsMiddleware())
        secret = policy_add("pw", PasswordPolicy("owner@example.org"))

        @app.route("/leak")
        def leak(request, response):
            response.write(secret)

        assert app.handle(Request("/leak", user="mallory")).status == 403

    def test_request_middleware_runs_before_handler(self, env):
        app = WebApplication(env)
        app.middleware(mark_request_untrusted)

        @app.route("/echo")
        def echo(request, response):
            assert policy_get(request.params["q"]).has_type(UntrustedData)
            response.write("ok")

        assert app.handle(Request("/echo", params={"q": "x"})).body() == "ok"

    def test_static_file_serving(self, env):
        env.fs.mkdir("/www/docroot", parents=True)
        env.fs.write_text("/www/docroot/page.html", "<p>static</p>")
        app = WebApplication(env)
        app.add_static_mount("/static", "/www/docroot")
        assert app.handle(Request("/static/page.html")).body() == "<p>static</p>"
        assert app.handle(Request("/static/missing.html")).status == 404

    def test_static_file_with_policy_is_guarded(self, env):
        env.fs.mkdir("/www/docroot", parents=True)
        env.fs.write_text("/www/docroot/secret.txt",
                          policy_add("the-password",
                                     PasswordPolicy("owner@example.org")))
        app = WebApplication(env)
        app.add_static_mount("/static", "/www/docroot")
        with pytest.raises(DisclosureViolation):
            app.handle(Request("/static/secret.txt", user="mallory"))

    def test_response_filters_applied(self, env):
        app = WebApplication(env)
        app.add_response_filter(HTMLGuardFilter())

        @app.route("/echo")
        def echo(request, response):
            response.write(request.params["q"])

        request = Request("/echo", params={"q": "<script>x</script>"})
        mark_request_untrusted(request)
        with pytest.raises(InjectionViolation):
            app.handle(request)


class TestInterpreter:
    def test_execute_source(self, env):
        namespace = env.interpreter.execute_source("result = 1 + 1")
        assert namespace["result"] == 2

    def test_execute_file_with_output(self, env):
        env.fs.write_text("/app.py", "output('hello')")
        response = env.http_channel()
        env.interpreter.execute_file("/app.py", response=response)
        assert response.body() == "hello"

    def test_script_error_wrapped(self, env):
        from repro.interp.interpreter import ScriptError
        with pytest.raises(ScriptError):
            env.interpreter.execute_source("1/0")

    def test_interpreter_filter_requires_full_approval(self):
        flt = InterpreterFilter({"origin": "/x.php"})
        approved = taint_str("x = 1", CodeApproval())
        assert flt.filter_read(approved) == "x = 1"
        with pytest.raises(ScriptInjectionViolation):
            flt.filter_read(TaintedStr("x = 1"))
        with pytest.raises(ScriptInjectionViolation):
            flt.filter_read(approved + " # appended by attacker")
        with pytest.raises(ScriptInjectionViolation):
            flt.filter_read(TaintedStr(""))

    def test_install_script_injection_assertion(self, env):
        env.fs.write_text("/good.py", "ok = True")
        env.fs.write_text("/evil.py", "ok = True")
        install_script_injection_assertion(env)
        approve_code_file(env.fs, "/good.py")
        env.interpreter.execute_file("/good.py")
        with pytest.raises(ScriptInjectionViolation):
            env.interpreter.execute_file("/evil.py")


class TestStandardPolicies:
    def test_acl_parse_and_rights(self):
        acl = ACL.parse("alice:read,write bob:read All:read")
        assert acl.may("alice", "write")
        assert acl.may(None, "read")
        assert not acl.may("bob", "write")
        assert acl.may("carol", "read")          # via All
        assert ACL.parse("Known:write").may("dave", "write")
        assert not ACL.parse("Known:write").may(None, "write")

    def test_acl_grant_revoke(self):
        acl = ACL.parse("alice:read")
        assert acl.grant("bob", "read").may("bob", "read")
        assert not acl.revoke("alice", "read").may("alice", "read")
        assert acl.principals() == {"alice"}
        assert ACL.from_dict(acl.to_dict()) == acl
        assert hash(ACL.parse("a:read")) == hash(ACL.parse("a:read"))

    def test_page_policy(self):
        policy = PagePolicy(ACL.parse("alice:read"), "Front")
        policy.export_check({"type": "http", "user": "alice"})
        with pytest.raises(AccessDenied):
            policy.export_check({"type": "http", "user": "bob"})
        policy.export_check({"type": "file", "path": "/x"})  # internal: ok

    def test_read_access_policy(self):
        policy = ReadAccessPolicy(["alice"], label="reviews",
                                  allow_chair=True)
        policy.export_check({"type": "http", "user": "alice"})
        policy.export_check({"type": "http", "user": "x", "priv_chair": True})
        with pytest.raises(AccessDenied):
            policy.export_check({"type": "http", "user": "bob"})

    def test_password_policy_rules(self):
        policy = PasswordPolicy("u@example.org")
        policy.export_check({"type": "email", "email": "u@example.org"})
        policy.export_check({"type": "sql"})
        policy.export_check({"type": "http", "priv_chair": True})
        with pytest.raises(DisclosureViolation):
            policy.export_check({"type": "email", "email": "e@evil.org"})
        with pytest.raises(DisclosureViolation):
            policy.export_check({"type": "http", "user": "mallory"})
        strict = PasswordPolicy("u@example.org", allow_chair=False)
        with pytest.raises(DisclosureViolation):
            strict.export_check({"type": "http", "priv_chair": True})

    def test_secret_policy(self):
        policy = SecretPolicy("api key", allowed_types=("email",),
                              allowed_users=("admin",))
        policy.export_check({"type": "email", "email": "anyone@x.org"})
        policy.export_check({"type": "http", "user": "admin"})
        policy.export_check({"type": "file"})
        with pytest.raises(DisclosureViolation):
            policy.export_check({"type": "http", "user": "guest"})

    def test_code_approval_is_permissive(self):
        CodeApproval("installer").export_check({"type": "code"})


class TestAssertionFilters:
    def test_sql_guard_structure_strategy(self):
        guard = SQLGuardFilter("structure")
        evil = mark_untrusted("x' OR '1'='1")
        query = concat("SELECT * FROM t WHERE name = '", evil, "'")
        with pytest.raises(InjectionViolation):
            guard.filter_func(lambda q: q, (query,), {})
        safe = concat("SELECT * FROM t WHERE name = '", sql_quote(evil), "'")
        guard.filter_func(lambda q: q, (safe,), {})

    def test_sql_guard_sanitizer_strategy(self):
        guard = SQLGuardFilter("sanitizer")
        evil = mark_untrusted("anything")
        query = concat("SELECT * FROM t WHERE name = '", evil, "'")
        with pytest.raises(InjectionViolation):
            guard.filter_func(lambda q: q, (query,), {})
        guard.filter_func(
            lambda q: q,
            (concat("SELECT * FROM t WHERE name = '", sql_quote(evil), "'"),),
            {})

    def test_sql_guard_ignores_plain_queries(self):
        SQLGuardFilter().filter_func(lambda q: q, ("SELECT 1",), {})

    def test_sql_guard_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            SQLGuardFilter("magic")

    def test_html_guard(self):
        guard = HTMLGuardFilter()
        payload = mark_untrusted("<script>x</script>")
        with pytest.raises(InjectionViolation):
            guard.filter_write(concat("<div>", payload, "</div>"))
        guard.filter_write(concat("<div>", html_escape(payload), "</div>"))
        guard.filter_write("plain, no policies")

    def test_response_splitting_filter(self):
        guard = ResponseSplittingFilter()
        guard.filter_write(TaintedStr("Location: /ok\r\n"))  # literal CRLF ok
        with pytest.raises(InjectionViolation):
            guard.filter_write(concat("Location: ",
                                      mark_untrusted("/x\r\nSet-Cookie: a=b")))


class TestVulnDB:
    def test_table1_totals(self):
        assert vulndb.cve_2008_total() == vulndb.CVE_2008_TOTAL
        rows = vulndb.cve_2008_table()
        assert sum(count for _, count, _ in rows) == vulndb.CVE_2008_TOTAL
        assert abs(sum(pct for _, _, pct in rows) - 100.0) < 1.0

    def test_sql_injection_share_matches_paper(self):
        rows = dict((name, pct) for name, _, pct in vulndb.cve_2008_table())
        assert rows["SQL injection"] == pytest.approx(20.4, abs=0.1)
        assert rows["Cross-site scripting"] == pytest.approx(14.0, abs=0.1)

    def test_addressable_fraction(self):
        assert 0.45 < vulndb.addressable_fraction() < 0.60

    def test_table2(self):
        table = dict(vulndb.web_survey_table())
        assert table["Cross-site scripting"] == pytest.approx(31.5)
        assert table["SQL injection"] == pytest.approx(7.9)
