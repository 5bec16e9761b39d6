"""Unit tests for the public API (Table 3), filter objects and the runtime
boundary machinery."""

import pytest

from repro.core import (DeclassifyFilter, DefaultFilter, Filter, FilterChain,
                        FilterContext, OutputBuffer, as_context, check_export,
                        default_filter, filter_of, guard_function,
                        has_policy, policy_add, policy_get, policy_remove,
                        taint, untaint)
from repro.core.exceptions import FilterError, PolicyViolation
from repro.core.policyset import PolicySet
from repro.environment import Environment
from repro.policies import PasswordPolicy, SQLSanitized, UntrustedData
from repro.tracking.tainted_str import TaintedStr

U = UntrustedData("x")


class TestPolicyAddRemoveGet:
    def test_add_to_str(self):
        value = policy_add("secret", U)
        assert isinstance(value, TaintedStr)
        assert policy_get(value) == PolicySet.of(U)

    def test_add_range_to_str(self):
        value = policy_add("abcdef", U, 1, 3)
        assert value.policies_at(1) == PolicySet.of(U)
        assert value.policies_at(3) == PolicySet.empty()

    def test_add_to_bytes_int_float(self):
        assert policy_get(policy_add(b"ab", U)) == PolicySet.of(U)
        assert policy_get(policy_add(7, U)) == PolicySet.of(U)
        assert policy_get(policy_add(1.5, U)) == PolicySet.of(U)

    def test_add_to_containers(self):
        data = policy_add({"k": ["v1", 2]}, U)
        assert policy_get(data) == PolicySet.of(U)

    def test_add_to_bool_rejected(self):
        with pytest.raises(TypeError):
            policy_add(True, U)

    def test_add_to_arbitrary_object_rejected(self):
        with pytest.raises(TypeError):
            policy_add(object(), U)

    def test_add_requires_policy(self):
        with pytest.raises(TypeError):
            policy_add("x", "not a policy")

    def test_remove(self):
        value = policy_add(policy_add("x", U), SQLSanitized())
        assert policy_get(policy_remove(value, U)) == PolicySet.of(SQLSanitized())

    def test_remove_from_plain_value_is_noop(self):
        assert policy_remove("plain", U) == "plain"

    def test_remove_from_container(self):
        data = policy_add(["a", "b"], U)
        assert policy_get(policy_remove(data, U)) == PolicySet.empty()

    def test_has_policy_every_char(self):
        partial = "safe" + policy_add("evil", U)
        assert has_policy(partial, UntrustedData)
        assert not has_policy(partial, UntrustedData, every_char=True)
        assert has_policy(policy_add("evil", U), UntrustedData,
                          every_char=True)

    def test_taint_untaint(self):
        value = taint("x", U, SQLSanitized())
        assert len(policy_get(value)) == 2
        assert policy_get(untaint(value)) == PolicySet.empty()


class TestDefaultFilter:
    def test_write_invokes_export_check(self):
        flt = DefaultFilter({"type": "http"})
        secret = policy_add("pw", PasswordPolicy("a@b.c"))
        with pytest.raises(PolicyViolation):
            flt.filter_write(secret)

    def test_write_allows_unannotated_data(self):
        assert DefaultFilter({"type": "http"}).filter_write("hello") == "hello"

    def test_func_checks_arguments(self):
        flt = DefaultFilter({"type": "http"})
        secret = policy_add("pw", PasswordPolicy("a@b.c"))
        with pytest.raises(PolicyViolation):
            flt.filter_func(len, (secret,), {})

    def test_func_forwards_result(self):
        assert DefaultFilter().filter_func(max, (1, 5), {}) == 5

    def test_read_passthrough(self):
        assert DefaultFilter().filter_read("x") == "x"


class TestFilterComposition:
    def test_declassify_filter_strips_type(self):
        flt = DeclassifyFilter([UntrustedData])
        value = policy_add("x", U)
        assert policy_get(flt.filter_write(value)) == PolicySet.empty()
        assert policy_get(flt.filter_read(value)) == PolicySet.empty()

    def test_declassify_filter_func(self):
        flt = DeclassifyFilter([UntrustedData])
        result = flt.filter_func(lambda: policy_add("x", U), (), {})
        assert policy_get(result) == PolicySet.empty()

    def test_chain_applies_in_order(self):
        calls = []

        class Recorder(Filter):
            def __init__(self, name):
                super().__init__()
                self.name = name

            def filter_write(self, data, offset=0):
                calls.append(self.name)
                return data

        chain = FilterChain([Recorder("a"), Recorder("b")])
        chain.filter_write("data")
        assert calls == ["a", "b"]

    def test_chain_read_reverses_order(self):
        calls = []

        class Recorder(Filter):
            def __init__(self, name):
                super().__init__()
                self.name = name

            def filter_read(self, data, offset=0):
                calls.append(self.name)
                return data

        chain = FilterChain([Recorder("a"), Recorder("b")])
        chain.filter_read("data")
        assert calls == ["b", "a"]

    def test_chain_rejects_non_filters(self):
        with pytest.raises(FilterError):
            FilterChain(["nope"])
        chain = FilterChain([])
        with pytest.raises(FilterError):
            chain.append("nope")

    def test_guard_function(self):
        flt = DeclassifyFilter([UntrustedData])
        guarded = guard_function(lambda v: v, flt)
        assert policy_get(guarded(policy_add("x", U))) == PolicySet.empty()
        assert filter_of(guarded) is flt

    def test_filter_of_channel_like(self):
        class Obj:
            pass

        obj = Obj()
        obj.filter = DefaultFilter()
        assert filter_of(obj) is obj.filter
        assert filter_of(object()) is None


class TestDefaultFilterRegistry:
    def test_default_filter_without_environment_sets_type(self):
        flt = default_filter(None, "email", {"email": "a@b.c"})
        assert type(flt) is DefaultFilter
        assert flt.context["type"] == "email"
        assert flt.context["email"] == "a@b.c"

    def test_factory_override_and_reset(self):
        # An override on an environment's registry reaches only the filters
        # built for that environment; resetting it restores the built-in one.
        class Custom(Filter):
            pass

        env = Environment()
        env.registry.set_default_filter_factory("socket", Custom)
        assert isinstance(default_filter(env, "socket", None), Custom)
        assert type(default_filter(None, "socket", None)) is DefaultFilter
        env.registry.reset()
        assert type(default_filter(env, "socket", None)) is DefaultFilter

    def test_factory_must_return_filter(self):
        env = Environment()
        env.registry.set_default_filter_factory("socket", lambda ctx: "nope")
        with pytest.raises(FilterError):
            default_filter(env, "socket", None)

    def test_factory_must_be_callable(self):
        # A rejected factory is not installed: the environment's channels
        # keep the built-in filter.
        env = Environment()
        with pytest.raises(FilterError):
            env.registry.set_default_filter_factory("socket", "nope")
        assert env.registry.overrides() == ()
        assert type(default_filter(env, "socket", None)) is DefaultFilter


class TestCheckExportAndContext:
    def test_check_export_raises(self):
        secret = policy_add("pw", PasswordPolicy("a@b.c"))
        with pytest.raises(PolicyViolation):
            check_export(secret, {"type": "http"})

    def test_check_export_allows(self):
        secret = policy_add("pw", PasswordPolicy("a@b.c"))
        assert check_export(secret, {"type": "email", "email": "a@b.c"}) == secret

    def test_context_child_and_describe(self):
        ctx = FilterContext(type="http", user="alice")
        child = ctx.child(user="bob")
        assert ctx["user"] == "alice"
        assert child["user"] == "bob"
        assert "type='http'" in ctx.describe()
        assert ctx.channel_type == "http"

    def test_as_context(self):
        ctx = FilterContext(type="sql")
        assert as_context(ctx) is ctx
        assert as_context({"a": 1})["a"] == 1
        assert as_context(None) == {}


class TestOutputBuffer:
    def test_unbuffered_write_goes_to_sink(self):
        sink = []
        OutputBuffer(sink.append).write("x")
        assert sink == ["x"]

    def test_release_flushes(self):
        sink = []
        buffer = OutputBuffer(sink.append)
        buffer.start()
        buffer.write("a")
        buffer.write("b")
        assert sink == []
        buffer.release()
        assert sink == ["a", "b"]

    def test_discard_with_alternate(self):
        sink = []
        buffer = OutputBuffer(sink.append)
        buffer.start()
        buffer.write("secret")
        buffer.discard("Anonymous")
        assert sink == ["Anonymous"]

    def test_nested_buffers(self):
        sink = []
        buffer = OutputBuffer(sink.append)
        buffer.start()
        buffer.write("outer")
        buffer.start()
        buffer.write("inner")
        buffer.discard()
        buffer.release()
        assert sink == ["outer"]

    def test_context_manager(self):
        sink = []
        buffer = OutputBuffer(sink.append)
        with buffer:
            buffer.write("kept")
        assert sink == ["kept"]
        with pytest.raises(ValueError):
            with buffer:
                buffer.write("dropped")
                raise ValueError("boom")
        assert sink == ["kept"]

    def test_release_without_start_raises(self):
        buffer = OutputBuffer(lambda _: None)
        with pytest.raises(FilterError):
            buffer.release()
        with pytest.raises(FilterError):
            buffer.discard()

    def test_depth_and_flags(self):
        buffer = OutputBuffer(lambda _: None)
        assert not buffer.buffering
        buffer.start()
        assert buffer.buffering and buffer.depth == 1
