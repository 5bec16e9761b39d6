"""One taint protocol for the four tainted types.

``TaintedStr``, ``TaintedBytes``, ``TaintedInt`` and ``TaintedFloat`` share
one base, ``Tainted``, and answer the same policy API; the Table 3
functions, ``strip_policies`` and ``DeclassifyFilter`` use it without a
per-type ladder.  ``policies_of`` is the one definition of a value's
policies, so formatting a container spreads its items' policies over the
formatted text as ``to_tainted_str`` of the same container does.
"""

import pickle

import pytest

from repro.core.api import has_policy, policy_add, policy_remove
from repro.core.exceptions import PolicyViolation
from repro.core.filter import DeclassifyFilter
from repro.core.policyset import PolicySet
from repro.policies import PasswordPolicy, SQLSanitized, UntrustedData
from repro.tracking.propagation import (interpolate, policies_of,
                                        strip_policies, to_tainted_str)
from repro.tracking.tainted_bytes import TaintedBytes
from repro.tracking.tainted_number import TaintedFloat, TaintedInt
from repro.tracking.tainted_str import Tainted, TaintedStr

U = UntrustedData("protocol")
S = SQLSanitized()
PW = PasswordPolicy("owner@x.org", allow_chair=False)

#: Each tainted type with the builtin value it wraps.
PLAIN = [
    (TaintedStr, "secret"),
    (TaintedBytes, b"secret"),
    (TaintedInt, 42),
    (TaintedFloat, 4.25),
]


def tainted(cls, plain, *policies):
    value = cls(plain)
    for policy in policies:
        value = value.with_policy(policy)
    return value


@pytest.mark.parametrize("cls, plain", PLAIN)
class TestOneProtocol:
    def test_one_base_and_plain_builtin(self, cls, plain):
        value = tainted(cls, plain, U)
        assert isinstance(value, Tainted)
        assert type(value.plain()) is type(plain)
        assert value.plain() == plain

    def test_policy_accessors(self, cls, plain):
        value = tainted(cls, plain, U)
        both = value.with_policy(S)
        assert type(both) is cls and both == plain
        assert both.policies() == PolicySet.of(U, S)
        assert policies_of(both) == PolicySet.of(U, S)
        assert both.without_policy(S).policies() == PolicySet.of(U)
        assert both.without_policy_type(UntrustedData).policies() == PolicySet.of(S)
        assert both.has_policy_type(UntrustedData)
        assert both.has_policy_type(SQLSanitized, every_char=True)
        assert not value.has_policy_type(SQLSanitized)

    def test_repr_hash_and_pickle_see_the_plain_value(self, cls, plain):
        value = tainted(cls, plain, U)
        assert repr(value) == repr(plain)
        assert hash(value) == hash(plain)
        restored = pickle.loads(pickle.dumps(value))
        assert type(restored) is type(plain) and restored == plain

    def test_table3_functions(self, cls, plain):
        value = policy_add(tainted(cls, plain, U), S)
        assert type(value) is cls
        assert value.policies() == PolicySet.of(U, S)
        assert has_policy(value, SQLSanitized)
        assert has_policy(value, SQLSanitized, every_char=True)
        removed = policy_remove(value, S)
        assert removed.policies() == PolicySet.of(U)
        assert not has_policy(removed, SQLSanitized)
        stripped = strip_policies(value)
        assert type(stripped) is type(plain) and stripped == plain

    def test_declassify_filter_strips_the_policy_type(self, cls, plain):
        value = tainted(cls, plain, U, PW)
        flt = DeclassifyFilter([PasswordPolicy])
        for result in (flt.filter_write(value), flt.filter_read(value)):
            assert result == plain
            assert result.policies() == PolicySet.of(U)


@pytest.mark.parametrize("cls, plain", PLAIN[2:])
def test_numbers_take_a_range_and_ignore_it(cls, plain):
    assert cls(plain).with_policy(U, 1, 2).policies() == PolicySet.of(U)
    assert policy_add(cls(plain), U, 1, 2).policies() == PolicySet.of(U)


def test_bytes_keep_every_byte():
    value = TaintedBytes(b"ab").with_policy(U, 0, 1)
    assert value.has_policy_type(UntrustedData)
    assert not value.has_policy_type(UntrustedData, every_byte=True)
    assert value.with_policy(U).has_policy_type(UntrustedData, every_byte=True)


# -- containers in formatting -----------------------------------------------------

PASSWORD = TaintedStr("hunter2").with_policy(PW)

CONTAINERS = {
    "list": [PASSWORD],
    "tuple": (PASSWORD,),
    "dict": {"key": PASSWORD},
}


def assert_spread(result, container):
    """The container's text carries the password policy on every character;
    the template's own text carries none."""
    assert result == "pw: " + str(container)
    assert not result[:4].policies()
    assert result[4:].has_policy_type(PasswordPolicy, every_char=True)


FORMATTERS = {
    "format": lambda value: TaintedStr("pw: {}").format(value),
    "format_map": lambda value: TaintedStr("pw: {v}").format_map({"v": value}),
    "percent": lambda value: TaintedStr("pw: %s") % (value,),
    "percent-bare": lambda value: TaintedStr("pw: %s") % value,
    "percent-mapping": lambda value: TaintedStr("pw: %(v)s") % {"v": value},
    "interpolate": lambda value: interpolate("pw: {}", value),
}


# A bare tuple after ``%`` is the argument list, not a value.
CASES = [(formatter, container) for formatter in sorted(FORMATTERS)
         for container in sorted(CONTAINERS)
         if (formatter, container) != ("percent-bare", "tuple")]


@pytest.mark.parametrize("formatter, container", CASES)
def test_formatting_a_container_spreads_its_policies(formatter, container):
    value = CONTAINERS[container]
    result = FORMATTERS[formatter](value)
    assert_spread(result, value)
    assert result.policies() == to_tainted_str(value).policies()


@pytest.mark.parametrize("template", [
    "%s", "%s %s", "%(a)s %s", "%s %(a)s", "%(a)s %(a)s", "%s %%",
])
def test_percent_with_a_mapping_takes_it_as_str_does(template):
    # Only the first conversion may take the whole mapping; a later unnamed
    # one finds no argument left.
    mapping = {"a": PASSWORD}
    try:
        expected = template % mapping
    except TypeError:
        with pytest.raises(TypeError, match="not enough arguments"):
            TaintedStr(template) % mapping
    else:
        result = TaintedStr(template) % mapping
        assert result == expected
        assert result.has_policy_type(PasswordPolicy)


def test_a_container_formatted_onto_a_page_is_checked(resin):
    with resin.request(user="eve@x.org") as http:
        with pytest.raises(PolicyViolation):
            http.write(interpolate("pw: {}", [PASSWORD]))
    assert "hunter2" not in http.body()
