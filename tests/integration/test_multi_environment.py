"""Integration tests: concurrent environments in one process.

The registry redesign exists so that two tenants (two ``Environment``
instances) can register different default filters for the *same* channel
type and serve interleaved requests without cross-contamination — the bug
the old process-global factory table made unavoidable.  These tests pin that
behaviour down, plus the ``OutputBuffer`` nesting-under-exceptions semantics
applications rely on when assertions drive their access checks.
"""

import pytest

from repro.core import DefaultFilter, Filter, OutputBuffer
from repro.core.exceptions import (PolicyViolation,
                                   ScriptInjectionViolation)
from repro.environment import Environment
from repro.policies import PasswordPolicy
from repro.runtime_api import Resin


class TestConcurrentEnvironments:
    def test_different_code_filters_interleaved(self):
        """Tenant A enforces script injection; tenant B does not.  Their
        requests interleave; neither observes the other's filter."""
        protected = Resin()
        unprotected = Resin()
        protected.fs.mkdir("/app")
        protected.fs.write_text("/app/page.py",
                                "globals_dict['ok'] = True")
        protected.assertion("script-injection").install()
        protected.approve_code("/app/page.py")

        for _ in range(3):   # interleave several "requests" per tenant
            # tenant B runs arbitrary (unapproved) code: permissive default
            unprotected.interpreter.execute_source(
                "globals_dict['any'] = True")
            assert unprotected.interpreter.globals["any"]
            # tenant A runs its approved page: allowed
            protected.interpreter.execute_file("/app/page.py")
            assert protected.interpreter.globals["ok"]
            # tenant A refuses unapproved code *in the same interleaving*
            with pytest.raises(ScriptInjectionViolation):
                protected.interpreter.execute_source(
                    "globals_dict['evil'] = True")
            assert "evil" not in protected.interpreter.globals

    def test_two_custom_code_filters_do_not_cross_contaminate(self):
        """The acceptance scenario: two environments register *different*
        default filters for the "code" channel type in one process."""
        seen_a, seen_b = [], []

        class TagA(Filter):
            def filter_read(self, data, offset=0):
                seen_a.append(str(data))
                return data

        class TagB(Filter):
            def filter_read(self, data, offset=0):
                seen_b.append(str(data))
                return data

        env_a, env_b = Environment(), Environment()
        env_a.registry.set_default_filter_factory("code", TagA)
        env_b.registry.set_default_filter_factory("code", TagB)

        env_a.interpreter.execute_source("globals_dict['who'] = 'a'")
        env_b.interpreter.execute_source("globals_dict['who'] = 'b'")
        env_a.interpreter.execute_source("globals_dict['again'] = 'a'")

        assert len(seen_a) == 2 and len(seen_b) == 1
        assert all("'a'" in code for code in seen_a)
        assert all("'b'" in code for code in seen_b)
        # And a third, untouched environment still gets the builtin filter.
        env_c = Environment()
        assert isinstance(
            env_c.interpreter.new_channel().filter.filters[0], DefaultFilter)

    def test_mail_and_db_resolve_through_owning_environment(self):
        """Substrate channels (email, sql) also consult their environment's
        registry, not the process-wide one."""
        hits = []

        class Recording(DefaultFilter):
            def filter_write(self, data, offset=0):
                hits.append(self.context.get("email"))
                return super().filter_write(data, offset)

        env = Environment()
        env.registry.set_default_filter_factory("email", Recording)
        env.mail.send(to="a@b.c", subject="s", body="hello")
        assert hits == ["a@b.c"]
        other = Environment()
        other.mail.send(to="x@y.z", subject="s", body="hello")
        assert hits == ["a@b.c"]          # other env never hit Recording


class TestOutputBufferNesting:
    def test_exception_at_depth_two_discards_only_inner(self):
        sink = []
        buffer = OutputBuffer(sink.append)
        with pytest.raises(PolicyViolation):
            with buffer:                       # depth 1
                buffer.write("outer")
                with buffer:                   # depth 2
                    buffer.write("inner")
                    raise PolicyViolation("assertion fired")
        # The exception unwound both buffers: the outer context manager saw
        # the exception too, so nothing escaped to the sink.
        assert sink == []

    def test_inner_violation_handled_outer_released(self):
        sink = []
        buffer = OutputBuffer(sink.append)
        with buffer:                           # depth 1
            buffer.write("header")
            try:
                with buffer:                   # depth 2
                    buffer.write("secret")
                    raise PolicyViolation("assertion fired")
            except PolicyViolation:
                buffer.write("Anonymous")
        assert sink == ["header", "Anonymous"]
        assert buffer.depth == 0

    def test_depth_three_mixed_release_discard(self):
        sink = []
        buffer = OutputBuffer(sink.append)
        buffer.start()
        buffer.write("a")
        buffer.start()
        buffer.write("b")
        buffer.start()
        buffer.write("c")
        buffer.discard("C")                     # depth 3 replaced
        buffer.release()                        # depth 2 -> depth 1
        buffer.release()                        # depth 1 -> sink
        assert sink == ["a", "b", "C"]

    def test_http_channel_nested_buffering_under_violation(self):
        """The Section 5.5 pattern at depth 2 on a real HTTP channel: an
        inner assertion failure swaps in alternate output, the outer buffer
        releases the page."""
        resin = Resin()
        secret = resin.policy(PasswordPolicy, "owner@b.c").on("pw")
        response = resin.channel("http", user="mallory@b.c")
        response.start_buffering()              # depth 1: whole page
        response.write("<body>")
        response.start_buffering()              # depth 2: author/password bit
        try:
            response.write(secret)
            response.release_buffer()
        except PolicyViolation:
            response.discard_buffer("[redacted]")
        response.write("</body>")
        assert response.body() == ""
        response.release_buffer()
        assert response.body() == "<body>[redacted]</body>"
