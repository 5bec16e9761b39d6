"""Unit tests for the environment-scoped filter registry and the fluent
``Resin`` runtime facade."""

import pytest

from repro.core import DefaultFilter, Filter, FilterRegistry
from repro.core.exceptions import (ChannelError, DisclosureViolation,
                                   FilterError, InjectionViolation,
                                   ScriptInjectionViolation)
from repro.core.policyset import PolicySet
from repro.channels.httpout import HTTPOutputChannel
from repro.channels.socketchan import SocketChannel
from repro.environment import Environment
from repro.policies import PasswordPolicy, SQLSanitized, UntrustedData
from repro.runtime_api import BoundPolicy, Resin


class Custom(Filter):
    pass


class TestFilterRegistry:
    def test_local_override_and_reset(self):
        registry = FilterRegistry()
        registry.set_default_filter_factory("socket", Custom)
        assert isinstance(registry.make_default_filter("socket"), Custom)
        assert registry.overrides() == ("socket",)
        registry.reset("socket")
        assert isinstance(registry.make_default_filter("socket"),
                          DefaultFilter)

    def test_sibling_registries_do_not_interfere(self):
        a, b = FilterRegistry(), FilterRegistry()
        a.set_default_filter_factory("code", Custom)
        assert isinstance(a.make_default_filter("code"), Custom)
        assert isinstance(b.make_default_filter("code"), DefaultFilter)

    def test_factory_must_be_callable(self):
        with pytest.raises(FilterError):
            FilterRegistry().set_default_filter_factory("socket", "nope")

    def test_factory_must_return_filter(self):
        registry = FilterRegistry()
        registry.set_default_filter_factory("socket", lambda ctx: "nope")
        with pytest.raises(FilterError):
            registry.make_default_filter("socket")


class TestContextMergeRegression:
    """``make_default_filter`` with a factory that builds its own context.

    Regression tests for the context-merge branch: the factory's explicit
    keys — including ``"type"`` — must survive the merge, and the filter
    must share one live context object with the channel so later channel
    mutations (``set_user``) stay visible to the filter."""

    def test_factory_type_key_survives_merge(self):
        registry = FilterRegistry()
        registry.set_default_filter_factory(
            "code", lambda ctx: DefaultFilter({"type": "factory-type",
                                               "who": "factory"}))
        flt = registry.make_default_filter("code", {"origin": "/x"})
        assert flt.context["type"] == "factory-type"
        assert flt.context["who"] == "factory"
        assert flt.context["origin"] == "/x"

    def test_merged_context_is_shared_with_channel(self):
        env = Environment()
        env.registry.set_default_filter_factory(
            "http", lambda ctx: DefaultFilter({"site": "demo"}))
        channel = HTTPOutputChannel(env=env)
        default = channel.filter.filters[0]
        assert default.context is channel.context
        assert channel.context["site"] == "demo"

    def test_set_user_visible_to_factory_built_filter(self):
        # The pre-fix code built a divorced merged dict: the default filter
        # never saw set_user(), so a policy that admits the data's owner saw
        # user=None and wrongly blocked the owner's own session.
        from repro.core.policy import Policy

        class OwnerOnly(Policy):
            def __init__(self, owner):
                self.owner = owner

            def export_check(self, context):
                if context.get("user") != self.owner:
                    raise DisclosureViolation(
                        f"only {self.owner!r} may see this",
                        policy=self, context=context)

        env = Environment()
        env.registry.set_default_filter_factory(
            "http", lambda ctx: DefaultFilter({"site": "demo"}))
        channel = HTTPOutputChannel(env=env)
        channel.set_user("alice@example.org")
        note = Resin(env).taint("for alice's eyes",
                                OwnerOnly("alice@example.org"))
        channel.write(note)              # owner's own session: allowed
        assert "for alice's eyes" in channel.body()
        stranger = HTTPOutputChannel(env=env)
        stranger.set_user("mallory@example.org")
        with pytest.raises(DisclosureViolation):
            stranger.write(note)


class TestProcessWideRegistry:
    # There is none: each environment's registry is the only source of its
    # channels' default filters, and a channel without an environment gets
    # the built-in DefaultFilter.

    def test_deprecated_mutator_shims_are_removed(self):
        import repro
        import repro.core
        for module in (repro, repro.core):
            for name in ("set_default_filter_factory",
                         "reset_default_filters"):
                with pytest.raises(AttributeError):
                    getattr(module, name)
        assert "set_default_filter_factory" not in repro.__all__
        assert "reset_default_filters" not in repro.core.__all__

    def test_process_wide_registry_is_removed(self):
        import repro
        import repro.core
        import repro.core.registry
        import repro.core.runtime
        for module in (repro, repro.core, repro.core.registry):
            for name in ("default_registry", "resolve_registry"):
                assert not hasattr(module, name)
        for module in (repro, repro.core, repro.core.runtime):
            for name in ("make_default_filter", "get_default_filter_factory"):
                assert not hasattr(module, name)
        # check_export has one home, core/filter.py, re-exported by packages.
        assert not hasattr(repro.core.runtime, "check_export")
        assert "check_export" not in repro.core.runtime.__all__
        assert repro.core.check_export is repro.core.filter.check_export
        for name in ("parent", "child", "has_override"):
            assert not hasattr(FilterRegistry(), name)
        with pytest.raises(TypeError):
            FilterRegistry(parent=FilterRegistry())
        with pytest.raises(TypeError):
            Environment(registry=FilterRegistry())

    def test_second_lexers_are_removed(self):
        # Each injection assertion reads its language through one lexer:
        # sql.tokenizer.scan for SQL, stdlib html.parser for HTML.
        import repro.sql
        import repro.sql.tokenizer
        import repro.web
        import repro.web.sanitize
        for module in (repro.sql, repro.sql.tokenizer):
            for name in ("tokenize", "Token"):
                assert not hasattr(module, name)
        assert "tokenize" not in repro.sql.__all__
        for module in (repro.web, repro.web.sanitize):
            assert not hasattr(module, "strip_tags")
            assert "strip_tags" not in module.__all__

    def test_thread_pool_dispatcher_is_removed(self):
        # AsyncDispatcher is the one concurrent front end in process.
        import importlib

        import repro
        import repro.server
        from repro.evaluation import table4
        with pytest.raises(ImportError):
            importlib.import_module("repro.server.dispatcher")
        for module in (repro, repro.server):
            assert not hasattr(module, "Dispatcher")
            assert "Dispatcher" not in module.__all__
        assert not hasattr(Resin, "dispatcher")
        with pytest.raises(ValueError):
            table4.run_all_concurrent(True, front_end="threads")

    def test_environment_override_does_not_leak_to_process(self):
        env = Environment()
        env.registry.set_default_filter_factory("socket", Custom)
        assert isinstance(env.socket().filter.filters[0], Custom)
        assert isinstance(Environment().socket().filter.filters[0],
                          DefaultFilter)
        assert isinstance(SocketChannel().filter.filters[0], DefaultFilter)


class TestResinFacade:
    def test_taint_policies_declassify(self, resin):
        value = resin.taint("x", UntrustedData("t"), SQLSanitized())
        assert len(resin.policies(value)) == 2
        assert resin.has_policy(value, UntrustedData)
        value = resin.remove(value, SQLSanitized())
        assert resin.policies(value) == PolicySet.of(UntrustedData("t"))
        assert resin.policies(resin.declassify(value)) == PolicySet.empty()

    def test_policy_binder(self, resin):
        binder = resin.policy(PasswordPolicy, "a@b.c")
        assert isinstance(binder, BoundPolicy)
        secret = binder.on("pw")
        assert resin.has_policy(secret, PasswordPolicy)
        with pytest.raises(TypeError):
            resin.policy(str)

    def test_channel_kinds(self, resin):
        assert resin.channel("http", user="u").context["user"] == "u"
        assert resin.channel("socket", "peer1").peer == "peer1"
        assert resin.channel("pipe", "sendmail").command == "sendmail"
        assert resin.channel("email", "a@b.c").context["email"] == "a@b.c"
        assert resin.channel("sql") is resin.env.db
        assert resin.channel("code").channel_type == "code"
        with pytest.raises(FilterError):
            resin.channel("carrier-pigeon")

    def test_channels_use_environment_registry(self, resin):
        resin.set_default_filter(
            "http", lambda ctx: Custom(ctx))
        assert isinstance(resin.channel("http").filter.filters[0], Custom)
        # Another environment in the same process is unaffected.
        assert isinstance(Resin().channel("http").filter.filters[0],
                          DefaultFilter)
        resin.reset_filters("http")
        assert isinstance(resin.channel("http").filter.filters[0],
                          DefaultFilter)

    def test_unknown_assertion(self, resin):
        with pytest.raises(KeyError):
            resin.assertion("no-such-assertion")

    def test_sql_injection_assertion(self, resin):
        resin.db.execute_unchecked("CREATE TABLE t (c TEXT)")
        resin.assertion("sql-injection", strategy="structure").install()
        evil = resin.taint("x' OR '1'='1", UntrustedData("p"))
        from repro.tracking.propagation import concat
        with pytest.raises(InjectionViolation):
            resin.db.query(concat("SELECT c FROM t WHERE c = '", evil, "'"))

    def test_xss_assertion_on_channel(self, resin):
        page = resin.channel("http", user="viewer")
        resin.assertion("xss").install(page)
        evil = resin.taint("<script>x</script>", UntrustedData("p"))
        with pytest.raises(InjectionViolation):
            page.write(evil)

    def test_script_injection_assertion_scoped(self, resin):
        resin.fs.mkdir("/app")
        resin.fs.write_text("/app/good.py", "globals_dict['ran'] = True")
        resin.assertion("script-injection").install()
        resin.approve_code("/app/good.py")
        resin.interpreter.execute_file("/app/good.py")
        assert resin.interpreter.globals["ran"]
        with pytest.raises(ScriptInjectionViolation):
            resin.interpreter.execute_source("globals_dict['evil'] = True")
        # uninstall restores the permissive default for this environment
        resin.assertion("script-injection").uninstall()
        resin.interpreter.execute_source("globals_dict['after'] = True")
        assert resin.interpreter.globals["after"]

    def test_request_scope_releases_on_success(self, resin):
        with resin.request(user="alice") as http:
            http.write("hello")
            assert http.body() == ""          # still buffered
        assert http.body() == "hello"
        assert resin.fs.request_context == {}

    def test_request_scope_discards_on_violation(self, resin):
        secret = resin.policy(PasswordPolicy, "owner@b.c").on("pw")
        with pytest.raises(DisclosureViolation):
            with resin.request(user="mallory@b.c") as http:
                http.write("<h1>debug</h1>")
                http.write(secret)
        assert http.body() == ""              # partial page never escaped
        assert resin.fs.request_context == {}

    def test_request_scope_sets_fs_context(self, resin):
        with resin.request(user="alice"):
            assert resin.fs.request_context == {"user": "alice"}
        assert resin.fs.request_context == {}

    def test_nested_request_scope_restores_outer_user(self, resin):
        with resin.request(user="alice"):
            with resin.request(user="bob"):
                assert resin.fs.request_context == {"user": "bob"}
            # the inner scope hands alice's context back, not {}
            assert resin.fs.request_context == {"user": "alice"}
        assert resin.fs.request_context == {}

    def test_web_handle_restores_enclosing_request_context(self, resin):
        from repro.web.app import WebApplication
        from repro.web.request import Request
        web = WebApplication(resin.env)

        @web.route("/page")
        def page(request, response):
            response.write("ok")

        with resin.request(user="alice"):
            web.handle(Request("/page", user="bob"))
            assert resin.fs.request_context == {"user": "alice"}

    def test_sql_channel_rejects_arguments(self, resin):
        with pytest.raises(FilterError):
            resin.channel("sql", persist_policies=False)

    def test_script_injection_install_on_target_env(self, resin):
        from repro.interp.filters import InterpreterFilter
        other = Environment()
        resin.assertion("script-injection").install(other)
        assert isinstance(
            other.interpreter.new_channel().filter.filters[0],
            InterpreterFilter)
        # the resin's own environment stays permissive
        assert isinstance(
            resin.interpreter.new_channel().filter.filters[0],
            DefaultFilter)

    def test_script_injection_install_on_webapp_stays_in_its_env(self, resin):
        # A WebApplication target installs on the app's own environment;
        # no other environment in the process gets the filter.
        from repro.interp.filters import InterpreterFilter
        resin.assertion("script-injection").install(resin.app("x"))
        assert isinstance(
            resin.interpreter.new_channel().filter.filters[0],
            InterpreterFilter)
        assert isinstance(
            Environment().interpreter.new_channel().filter.filters[0],
            DefaultFilter)

    def test_script_injection_install_on_resin_target(self, resin):
        from repro.interp.filters import InterpreterFilter
        other = Resin()
        resin.assertion("script-injection").install(other)
        assert isinstance(
            other.interpreter.new_channel().filter.filters[0],
            InterpreterFilter)
        assert resin.registry.overrides() == ()

    def test_script_injection_install_rejects_a_target_without_env(
            self, resin):
        with pytest.raises(FilterError, match="not object"):
            resin.assertion("script-injection").install(object())
        assert resin.registry.overrides() == ()
        assert isinstance(
            Environment().interpreter.new_channel().filter.filters[0],
            DefaultFilter)

    def test_uninstall_hits_the_env_it_was_installed_on(self, resin):
        other = Environment()
        handle = resin.assertion("script-injection").install(other)
        handle.uninstall()
        assert isinstance(
            other.interpreter.new_channel().filter.filters[0],
            DefaultFilter)
        assert other.registry.overrides() == ()

    def test_assertion_object_is_reusable(self, resin):
        from repro.security.assertions import HTMLGuardFilter
        page_a = resin.channel("http")
        page_b = resin.channel("http")
        handle = resin.assertion("xss", on=page_a)
        handle.install()
        handle.install(page_b)      # a second install must not fail
        assert any(isinstance(f, HTMLGuardFilter)
                   for f in page_a.filter.filters)
        assert any(isinstance(f, HTMLGuardFilter)
                   for f in page_b.filter.filters)


class TestEnvironmentHttpShim:
    def test_outside_a_request_names_http_channel(self, env):
        with pytest.raises(ChannelError, match=r"env\.http_channel\(\)"):
            env.http

    def test_each_request_gets_a_clean_channel(self, resin):
        with resin.request(user="alice"):
            first = resin.env.http
            first.write("scenario one output")
        with resin.request(user="bob"):
            second = resin.env.http
            assert second is not first
            assert second.body() == ""
            assert second.context.get("user") == "bob"
