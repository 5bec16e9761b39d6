"""Integration tests: the Environment facade and the shipped examples.

Every example in ``examples/`` must run cleanly — they are part of the
public documentation, so a regression there is a regression in the library.
"""

import pathlib
import runpy

import pytest

from repro.core.api import policy_add
from repro.core.exceptions import ChannelError, DisclosureViolation
from repro.core.request_context import RequestContext
from repro.environment import Environment
from repro.policies import PasswordPolicy

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


class TestEnvironment:
    def test_components_wired(self):
        env = Environment()
        assert env.fs is not None and env.db is not None
        assert env.mail is not None and env.interpreter.env is env
        assert len(env.sessions) == 0

    def test_channel_factories(self):
        env = Environment()
        http = env.http_channel(user="alice", priv_chair=True, url="/x")
        assert http.context["user"] == "alice"
        assert http.context["priv_chair"] is True
        assert env.socket("peer").peer == "peer"
        assert env.pipe("sendmail").command == "sendmail"

    def test_http_is_the_bound_requests_channel(self):
        # Only a request of the environment itself binds its env.http.
        env, other = Environment(), Environment()
        with RequestContext(env=env, user="alice") as rctx:
            rctx.http = env.http_channel(user="alice")
            assert env.http is rctx.http
            with pytest.raises(ChannelError):
                other.http
        with pytest.raises(ChannelError):
            env.http

    def test_environments_are_isolated(self):
        first, second = Environment(), Environment()
        first.fs.write_text("/only-here.txt", "data")
        assert not second.fs.exists("/only-here.txt")
        first.db.execute_unchecked("CREATE TABLE t (a TEXT)")
        assert "t" not in second.db.engine.tables

    def test_end_to_end_password_flow(self):
        env = Environment()
        secret = policy_add("pw", PasswordPolicy("owner@example.org"))
        env.fs.write_text("/secret", secret)
        env.mail.send("owner@example.org", "hi", env.fs.read_text("/secret"))
        with pytest.raises(DisclosureViolation):
            env.http_channel(user="eve").write(env.fs.read_text("/secret"))


@pytest.mark.parametrize("example", EXAMPLES, ids=[e.name for e in EXAMPLES])
def test_example_runs(example, capsys):
    assert EXAMPLES, "examples directory should not be empty"
    runpy.run_path(str(example), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{example.name} produced no output"
    assert "Traceback" not in out
