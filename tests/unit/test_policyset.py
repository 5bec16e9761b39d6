"""Unit tests for PolicySet."""

import copy
import pickle
import sys
import threading

import pytest

from repro.core import policyset
from repro.core.policyset import PolicySet, as_policyset
from repro.policies import (HTMLSanitized, PasswordPolicy,
                            SQLSanitized, UntrustedData)


class TestConstruction:
    def test_empty(self):
        assert len(PolicySet.empty()) == 0
        assert not PolicySet.empty()

    def test_of(self):
        pset = PolicySet.of(UntrustedData(), SQLSanitized())
        assert len(pset) == 2

    def test_duplicates_collapse(self):
        pset = PolicySet.of(UntrustedData("a"), UntrustedData("a"))
        assert len(pset) == 1

    def test_rejects_non_policy(self):
        with pytest.raises(TypeError):
            PolicySet(["nope"])

    def test_as_policyset_from_none(self):
        assert as_policyset(None) == PolicySet.empty()

    def test_as_policyset_from_policy(self):
        policy = UntrustedData()
        assert as_policyset(policy) == PolicySet.of(policy)

    def test_as_policyset_passthrough(self):
        pset = PolicySet.of(UntrustedData())
        assert as_policyset(pset) is pset


class TestSetOperations:
    def test_add_returns_new_set(self):
        original = PolicySet.empty()
        updated = original.add(UntrustedData())
        assert len(original) == 0
        assert len(updated) == 1

    def test_add_existing_is_noop(self):
        pset = PolicySet.of(UntrustedData("a"))
        assert pset.add(UntrustedData("a")) is pset

    def test_remove(self):
        pset = PolicySet.of(UntrustedData("a"), SQLSanitized())
        assert UntrustedData("a") not in pset.remove(UntrustedData("a"))

    def test_remove_missing_is_noop(self):
        pset = PolicySet.of(SQLSanitized())
        assert pset.remove(UntrustedData()) is pset

    def test_union(self):
        combined = PolicySet.of(UntrustedData()).union(
            PolicySet.of(SQLSanitized()))
        assert len(combined) == 2

    def test_a_memoized_union_is_the_interned_set_of_its_members(self):
        left = PolicySet.of(UntrustedData("memo-left"))
        right = PolicySet.of(SQLSanitized(), UntrustedData("memo-right"))
        policyset._union_memo.clear()
        first = left.union(right)
        assert (left, right) in policyset._union_memo
        assert left.union(right) is first
        assert first is PolicySet([*right, *left])
        assert copy.deepcopy(first) is first
        assert pickle.loads(pickle.dumps(first)) is first
        # A member the left side already holds builds no new set.
        assert first.union(left) is first

    def test_the_union_memo_is_cleared_when_full(self):
        base = PolicySet.of(SQLSanitized())
        policyset._union_memo.clear()
        for index in range(policyset.UNION_MEMO_SIZE + 10):
            other = PolicySet.of(UntrustedData(f"bound-{index}"))
            assert base.union(other) == {SQLSanitized(),
                                         UntrustedData(f"bound-{index}")}
            assert len(policyset._union_memo) <= policyset.UNION_MEMO_SIZE
        assert len(policyset._union_memo) == 10

    def test_the_union_memo_stays_bounded_under_threads(self, monkeypatch):
        """Eight threads, a 1 µs switch interval and a memo of 4 pairs:
        every union is right and no thread ever sees the memo over its
        bound, which two unlocked inserts after one size check break in
        most runs."""
        monkeypatch.setattr(policyset, "UNION_MEMO_SIZE", 4)
        policyset._union_memo.clear()
        singles = [PolicySet.of(UntrustedData(f"thread-{i}")) for i in range(24)]
        failures = []

        def work(offset):
            for step in range(3000):
                left = singles[(offset + step) % len(singles)]
                right = singles[(offset + 3 * step + 1) % len(singles)]
                if left.union(right) != set(left) | set(right):
                    failures.append("wrong union")
                if len(policyset._union_memo) > 4:
                    failures.append("over the bound")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(offset,))
                       for offset in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_a_union_with_a_plain_iterable_is_not_memoized(self):
        base = PolicySet.of(SQLSanitized())
        policyset._union_memo.clear()
        assert base.union([UntrustedData("it")]) is PolicySet.of(
            SQLSanitized(), UntrustedData("it"))
        assert base.union(()) is base
        assert not policyset._union_memo

    def test_intersection(self):
        left = PolicySet.of(UntrustedData(), SQLSanitized())
        right = PolicySet.of(SQLSanitized(), HTMLSanitized())
        assert list(left.intersection(right)) == [SQLSanitized()]

    def test_difference(self):
        left = PolicySet.of(UntrustedData(), SQLSanitized())
        assert list(left.difference([SQLSanitized()])) == [UntrustedData()]

    def test_without_type(self):
        pset = PolicySet.of(UntrustedData(), SQLSanitized(), HTMLSanitized())
        stripped = pset.without_type(UntrustedData)
        assert not stripped.has_type(UntrustedData)
        assert stripped.has_type(SQLSanitized)

    def test_of_type(self):
        pset = PolicySet.of(UntrustedData("a"), UntrustedData("b"),
                            SQLSanitized())
        assert len(pset.of_type(UntrustedData)) == 2

    def test_has_type_respects_subclasses(self):
        pset = PolicySet.of(SQLSanitized())
        from repro.policies.untrusted import SanitizedMarker
        assert pset.has_type(SanitizedMarker)


class TestContainerProtocol:
    def test_contains(self):
        assert UntrustedData("x") in PolicySet.of(UntrustedData("x"))

    def test_iteration_order_stable(self):
        pset = PolicySet.of(UntrustedData("b"), UntrustedData("a"))
        assert [p.source for p in pset] == ["a", "b"]

    def test_equality_with_plain_set(self):
        assert PolicySet.of(UntrustedData("x")) == {UntrustedData("x")}

    def test_hashable(self):
        assert hash(PolicySet.of(UntrustedData("x"))) == hash(
            PolicySet.of(UntrustedData("x")))

    def test_repr(self):
        assert "UntrustedData" in repr(PolicySet.of(UntrustedData()))

    def test_unhashable_policy_fields_fall_back(self):
        policy = PasswordPolicy("a@b.c")
        policy.weird = ["unhashable", {}]
        pset = PolicySet.of(policy)
        assert policy in pset
