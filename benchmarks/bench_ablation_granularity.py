"""Experiment E6 (ablation): character-level vs whole-string tracking.

Section 3.4 argues for character-level tracking: when data with different
policies is combined in one string, only the characters that actually came
from the sensitive datum should carry its policy.  The ablation composes the
HotCRP password-reminder e-mail both ways and reports

* how many characters of the message end up carrying the password policy,
* whether the surrounding boilerplate can still be exported freely, and
* the time cost of the two strategies.
"""

import pytest

from repro.core.api import policy_add, policy_get
from repro.core.filter import check_export
from repro.core.exceptions import PolicyViolation
from repro.policies import PasswordPolicy
from repro.tracking.propagation import concat, spread_policies
from repro.tracking.tainted_str import TaintedStr

PASSWORD = "correct-horse-battery-staple"
OWNER = "owner@example.org"


def compose_char_level():
    """Character-level tracking (what RESIN does)."""
    password = policy_add(PASSWORD, PasswordPolicy(OWNER))
    return concat("Dear user,\n\nYour password is: ", password,
                  "\n\nRegards, the submission site\n")


def compose_whole_string():
    """Whole-string tracking (the ablated design): the policy of any operand
    spreads over the entire result."""
    password = policy_add(PASSWORD, PasswordPolicy(OWNER))
    message = ("Dear user,\n\nYour password is: " + str(password)
               + "\n\nRegards, the submission site\n")
    return spread_policies(message, policy_get(password))


def _tainted_chars(message: TaintedStr) -> int:
    return sum(1 for i in range(len(message))
               if message.policies_at(i).has_type(PasswordPolicy))


@pytest.mark.parametrize("strategy,composer", [
    ("char-level", compose_char_level),
    ("whole-string", compose_whole_string),
])
def test_granularity_ablation(benchmark, strategy, composer, capsys):
    benchmark.group = "ablation:granularity"
    message = benchmark(composer)

    tainted = _tainted_chars(message)
    boilerplate = message[:10]          # "Dear user," — no password chars
    try:
        check_export(boilerplate, {"type": "http", "user": "helpdesk"})
        boilerplate_exportable = True
    except PolicyViolation:
        boilerplate_exportable = False

    benchmark.extra_info["policy_carrying_chars"] = tainted
    benchmark.extra_info["message_chars"] = len(message)
    benchmark.extra_info["boilerplate_exportable"] = boilerplate_exportable

    with capsys.disabled():
        print(f"\n[{strategy:12}] {tainted}/{len(message)} characters carry "
              f"the password policy; boilerplate exportable: "
              f"{boilerplate_exportable}")

    if strategy == "char-level":
        # Only the password itself is restricted (Section 3.4's claim).
        assert tainted == len(PASSWORD)
        assert boilerplate_exportable
    else:
        # The ablated design over-taints: the whole message is restricted.
        assert tainted == len(message)
        assert not boilerplate_exportable
