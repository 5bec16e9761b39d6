"""Property-based tests for RangeMap algebra and the merge protocol."""

import pytest
from hypothesis import given, strategies as st

from repro.core.policyset import PolicySet
from repro.policies import AuthenticData, SQLSanitized, UntrustedData
from repro.tracking.merge import merge_many, merge_policysets
from repro.tracking.ranges import PolicyRange, RangeMap

U = UntrustedData("p")
S = SQLSanitized()
A = AuthenticData("ca")

policies = st.sampled_from([U, S, A])


@st.composite
def rangemaps(draw, max_length=30):
    length = draw(st.integers(0, max_length))
    n_ranges = draw(st.integers(0, 4))
    ranges = []
    for _ in range(n_ranges):
        if length == 0:
            break
        start = draw(st.integers(0, length - 1))
        stop = draw(st.integers(start + 1, length))
        ranges.append(PolicyRange(start, stop,
                                  PolicySet.of(draw(policies))))
    return RangeMap(length, ranges)


class TestRangeMapAlgebra:
    @given(left=rangemaps(), right=rangemaps())
    def test_concat_length_and_positions(self, left, right):
        combined = left.concat(right)
        assert combined.length == left.length + right.length
        for index in range(left.length):
            assert combined.policies_at(index) == left.policies_at(index)
        for index in range(right.length):
            assert combined.policies_at(left.length + index) == \
                right.policies_at(index)

    @given(rmap=rangemaps(), start=st.integers(-40, 40),
           stop=st.integers(-40, 40))
    def test_slice_positions(self, rmap, start, stop):
        sliced = rmap.slice(*slice(start, stop).indices(rmap.length)[:2])
        real_start, real_stop, _ = slice(start, stop).indices(rmap.length)
        assert sliced.length == max(0, real_stop - real_start)
        for index in range(sliced.length):
            assert sliced.policies_at(index) == \
                rmap.policies_at(real_start + index)

    @given(rmap=rangemaps())
    def test_normalization_is_idempotent(self, rmap):
        again = RangeMap(rmap.length, rmap.ranges)
        assert again == rmap

    @given(rmap=rangemaps())
    def test_ranges_sorted_disjoint_nonempty(self, rmap):
        previous_stop = 0
        for rng in rmap.ranges:
            assert rng.start >= previous_stop
            assert rng.stop > rng.start
            assert rng.policies
            previous_stop = rng.stop
            assert rng.stop <= rmap.length

    @given(rmap=rangemaps())
    def test_all_policies_is_union_of_positions(self, rmap):
        union = PolicySet.empty()
        for index in range(rmap.length):
            union = union.union(rmap.policies_at(index))
        assert union == rmap.all_policies()

    @given(rmap=rangemaps(), count=st.integers(0, 4))
    def test_repeat_matches_explicit_concat(self, rmap, count):
        repeated = rmap.repeat(count)
        explicit = RangeMap(0)
        for _ in range(count):
            explicit = explicit.concat(rmap)
        assert repeated == explicit

    @given(rmap=rangemaps())
    def test_segments_roundtrip(self, rmap):
        assert RangeMap.from_segments(rmap.length,
                                      rmap.to_segments()) == rmap

    @given(rmap=st.one_of(rangemaps(), st.tuples(rangemaps(), rangemaps()).map(
               lambda maps: maps[0].concat(maps[1]))),
           policy=policies, start=st.integers(-5, 65),
           stop=st.none() | st.integers(-5, 65))
    def test_add_policy_matches_eager_normalization(self, rmap, policy, start,
                                                    stop):
        lo = max(0, start)
        hi = min(rmap.length, rmap.length if stop is None else stop)
        if hi < lo:
            with pytest.raises(ValueError):
                rmap.add_policy(policy, start, stop)
            return
        added = rmap.add_policy(policy, start, stop)
        if hi == lo:
            assert added is rmap
            return
        eager = RangeMap(rmap.length, list(rmap.ranges)
                         + [PolicyRange(lo, hi, PolicySet.of(policy))])
        assert added.length == eager.length
        assert added.ranges == eager.ranges


class TestMergeProperties:
    @given(left=st.lists(policies, max_size=3),
           right=st.lists(policies, max_size=3))
    def test_merge_is_commutative(self, left, right):
        assert merge_policysets(PolicySet(left), PolicySet(right)) == \
            merge_policysets(PolicySet(right), PolicySet(left))

    @given(operands=st.lists(st.lists(policies, max_size=2), max_size=4))
    def test_union_policies_always_survive(self, operands):
        merged = merge_many([PolicySet(ops) for ops in operands])
        if any(U in ops for ops in operands):
            assert merged.has_type(UntrustedData)

    @given(left=st.lists(policies, max_size=3))
    def test_merge_with_empty_drops_intersection_policies(self, left):
        merged = merge_policysets(PolicySet(left), PolicySet.empty())
        assert not merged.has_type(AuthenticData)

    @given(left=st.lists(policies, min_size=1, max_size=3),
           right=st.lists(policies, min_size=1, max_size=3))
    def test_authentic_survives_only_if_on_both_sides(self, left, right):
        merged = merge_policysets(PolicySet(left), PolicySet(right))
        both = (A in left) and (A in right)
        assert merged.has_type(AuthenticData) == both
