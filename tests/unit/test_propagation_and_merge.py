"""Unit tests for the propagation helpers and the merge protocol."""

import pytest

from repro.core.exceptions import MergeError
from repro.core.policy import Policy
from repro.core.policyset import PolicySet
from repro.policies import AuthenticData, SQLSanitized, UntrustedData
from repro.tracking.merge import merge_many, merge_policysets
from repro.tracking.propagation import (concat, interpolate, merge_values,
                                        policies_of, spread_policies,
                                        strip_policies, to_tainted_str)
from repro.tracking.tainted_number import taint_int
from repro.tracking.tainted_str import taint_str

U = UntrustedData("x")
A = AuthenticData("ca")


class TestMergeProtocol:
    def test_union_of_unions(self):
        merged = merge_policysets(PolicySet.of(U), PolicySet.of(UntrustedData("y")))
        assert len(merged) == 2

    def test_intersection_policy_needs_peer(self):
        assert not merge_policysets(PolicySet.of(A), PolicySet.empty())
        assert merge_policysets(PolicySet.of(A), PolicySet.of(AuthenticData("other")))

    def test_both_empty(self):
        assert merge_policysets(None, None) == PolicySet.empty()

    def test_merge_many(self):
        merged = merge_many([PolicySet.of(U), PolicySet.of(SQLSanitized()),
                             PolicySet.empty()])
        assert merged.has_type(UntrustedData)

    def test_merge_many_empty_list(self):
        assert merge_many([]) == PolicySet.empty()

    def test_custom_merge_returning_none(self):
        class Dropper(Policy):
            def merge(self, other):
                return None

        assert merge_policysets(PolicySet.of(Dropper()),
                                PolicySet.empty()) == PolicySet.empty()

    def test_custom_merge_returning_single_policy(self):
        class Swapper(Policy):
            def merge(self, other):
                return UntrustedData("swapped")

        merged = merge_policysets(PolicySet.of(Swapper()), PolicySet.empty())
        assert merged == PolicySet.of(UntrustedData("swapped"))

    def test_merge_error_propagates(self):
        class Refuses(Policy):
            merge_strategy = "reject"

        with pytest.raises(MergeError):
            merge_policysets(PolicySet.of(Refuses()), PolicySet.of(U))


class TestPoliciesOf:
    def test_scalar_types(self):
        assert policies_of(taint_str("x", U)) == PolicySet.of(U)
        assert policies_of(taint_int(1, U)) == PolicySet.of(U)
        assert policies_of("plain") == PolicySet.empty()
        assert policies_of(42) == PolicySet.empty()

    def test_containers(self):
        data = {"key": [taint_str("a", U), "b"], "other": taint_int(1, A)}
        assert policies_of(data) == PolicySet.of(U, A)

    def test_tainted_key(self):
        assert policies_of({taint_str("k", U): "v"}) == PolicySet.of(U)


class TestHelpers:
    def test_to_tainted_str_from_number(self):
        result = to_tainted_str(taint_int(42, U))
        assert result == "42"
        assert result.policies() == PolicySet.of(U)

    def test_to_tainted_str_from_bytes(self):
        from repro.tracking.tainted_bytes import taint_bytes
        assert to_tainted_str(taint_bytes(b"ab", U)).policies() == PolicySet.of(U)

    def test_concat_mixed_values(self):
        result = concat("id=", taint_int(7, U), " name=", taint_str("bob", A))
        assert result == "id=7 name=bob"
        assert result.policies_at(3) == PolicySet.of(U)
        assert result.policies_at(0) == PolicySet.empty()

    def test_interpolate_tracks_values(self):
        result = interpolate("hello {name}", name=taint_str("eve", U))
        assert result == "hello eve"
        assert result.policies_at(6) == PolicySet.of(U)
        assert result.policies_at(0) == PolicySet.empty()

    def test_merge_values(self):
        merged = merge_values(taint_str("a", U), taint_int(1, A))
        assert merged.has_type(UntrustedData)
        assert not merged.has_type(AuthenticData)

    def test_spread_policies(self):
        result = spread_policies("abc", U)
        assert result.has_policy_type(UntrustedData, every_char=True)

    def test_strip_policies_recursive(self):
        data = {"a": [taint_str("x", U)], "b": (taint_int(1, U),)}
        stripped = strip_policies(data)
        assert policies_of(stripped) == PolicySet.empty()
        assert stripped == {"a": ["x"], "b": (1,)}

    def test_strip_policies_plain_passthrough(self):
        sentinel = object()
        assert strip_policies(sentinel) is sentinel
