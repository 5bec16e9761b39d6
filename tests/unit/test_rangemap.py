"""Unit tests for the character-range policy map."""

import pytest

from repro.core.policyset import PolicySet
from repro.policies import HTMLSanitized, SQLSanitized, UntrustedData
from repro.tracking.ranges import PolicyRange, RangeMap

U = UntrustedData()
S = SQLSanitized()
H = HTMLSanitized()


class TestPolicyRange:
    def test_length(self):
        assert len(PolicyRange(2, 7, PolicySet.of(U))) == 5

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            PolicyRange(5, 2, PolicySet.of(U))
        with pytest.raises(ValueError):
            PolicyRange(-1, 2, PolicySet.of(U))

    def test_shifted(self):
        rng = PolicyRange(2, 4, PolicySet.of(U)).shifted(3)
        assert (rng.start, rng.stop) == (5, 7)

    def test_equality(self):
        assert PolicyRange(0, 3, PolicySet.of(U)) == PolicyRange(
            0, 3, PolicySet.of(U))


class TestNormalization:
    def test_empty_policy_ranges_dropped(self):
        rmap = RangeMap(10, [PolicyRange(0, 5, PolicySet.empty())])
        assert rmap.is_empty()

    def test_out_of_bounds_clamped(self):
        rmap = RangeMap(4, [PolicyRange(2, 100, PolicySet.of(U))])
        assert rmap.ranges[0].stop == 4

    def test_adjacent_equal_ranges_coalesce(self):
        rmap = RangeMap(10, [PolicyRange(0, 5, PolicySet.of(U)),
                             PolicyRange(5, 10, PolicySet.of(U))])
        assert len(rmap.ranges) == 1

    def test_overlapping_ranges_union_policies(self):
        rmap = RangeMap(10, [PolicyRange(0, 6, PolicySet.of(U)),
                             PolicyRange(4, 10, PolicySet.of(S))])
        assert rmap.policies_at(5) == PolicySet.of(U, S)
        assert rmap.policies_at(2) == PolicySet.of(U)
        assert rmap.policies_at(8) == PolicySet.of(S)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            RangeMap(-1)
        with pytest.raises(ValueError):
            RangeMap.empty(-1)
        with pytest.raises(ValueError):
            RangeMap.uniform(-1, None)
        with pytest.raises(ValueError):
            RangeMap.uniform(-1, U)

    def test_add_policy_to_an_empty_map_rejects_a_reversed_range(self):
        with pytest.raises(ValueError):
            RangeMap.empty(10).add_policy(U, 6, 2)
        assert RangeMap.empty(10).add_policy(U, 2, 6) == RangeMap(
            10, [PolicyRange(2, 6, PolicySet.of(U))])


class TestQueries:
    def test_uniform(self):
        rmap = RangeMap.uniform(5, U)
        assert rmap.every_position_has(UntrustedData)

    def test_uniform_empty_policies(self):
        assert RangeMap.uniform(5, None).is_empty()

    def test_policies_at_negative_index(self):
        rmap = RangeMap(5, [PolicyRange(4, 5, PolicySet.of(U))])
        assert rmap.policies_at(-1) == PolicySet.of(U)

    def test_policies_at_out_of_range(self):
        with pytest.raises(IndexError):
            RangeMap(3).policies_at(3)

    def test_all_policies(self):
        rmap = RangeMap(10, [PolicyRange(0, 2, PolicySet.of(U)),
                             PolicyRange(8, 10, PolicySet.of(S))])
        assert rmap.all_policies() == PolicySet.of(U, S)

    def test_all_policies_of_flat_children_leaves_the_concatenation_lazy(self):
        left = RangeMap.uniform(3, U)
        right = RangeMap(5, [PolicyRange(1, 2, PolicySet.of(S)),
                             PolicyRange(3, 5, PolicySet.of(U, H))])
        rmap = RangeMap.concat_many([left, RangeMap.empty(4), right])
        assert rmap.all_policies() == PolicySet.of(U, S, H)
        assert not rmap.is_materialized()
        assert rmap.all_policies() == PolicySet.of(U, S, H)
        assert not rmap.is_materialized()
        flattened = PolicySet.empty()
        for rng in rmap.ranges:
            flattened = flattened.union(rng.policies)
        assert flattened == PolicySet.of(U, S, H)

    def test_all_policies_of_a_concatenation_of_ropes_flattens(self):
        inner = RangeMap.uniform(2, U).concat(RangeMap.uniform(2, S))
        rmap = inner.concat(RangeMap.uniform(2, H))
        assert rmap.all_policies() == PolicySet.of(U, S, H)
        assert rmap.is_materialized()

    def test_all_policies_of_a_deep_concat_chain_does_not_recurse(self):
        rmap = RangeMap.empty(0)
        for index in range(10_000):
            rmap = rmap.concat(RangeMap.uniform(1, (U, S, H)[index % 3]))
        policies = rmap.all_policies()
        flattened = PolicySet.empty()
        for rng in rmap.ranges:
            flattened = flattened.union(rng.policies)
        assert policies == flattened == PolicySet.of(U, S, H)

    def test_covered(self):
        rmap = RangeMap(10, [PolicyRange(0, 2, PolicySet.of(U)),
                             PolicyRange(8, 10, PolicySet.of(S))])
        assert rmap.covered() == 4

    def test_positions_with(self):
        rmap = RangeMap(6, [PolicyRange(1, 3, PolicySet.of(U))])
        assert list(rmap.positions_with(UntrustedData)) == [1, 2]

    def test_every_position_has_partial(self):
        rmap = RangeMap(6, [PolicyRange(1, 3, PolicySet.of(U))])
        assert not rmap.every_position_has(UntrustedData)

    def test_every_position_has_empty_string(self):
        assert RangeMap(0).every_position_has(UntrustedData)


class TestTransformations:
    def test_slice_simple(self):
        rmap = RangeMap(10, [PolicyRange(3, 7, PolicySet.of(U))])
        sliced = rmap.slice(5, 10)
        assert sliced.length == 5
        assert sliced.policies_at(0) == PolicySet.of(U)
        assert sliced.policies_at(2) == PolicySet.empty()

    def test_slice_with_step(self):
        rmap = RangeMap(10, [PolicyRange(0, 1, PolicySet.of(U)),
                             PolicyRange(2, 3, PolicySet.of(S))])
        sliced = rmap.slice(0, 10, 2)
        assert sliced.policies_at(0) == PolicySet.of(U)
        assert sliced.policies_at(1) == PolicySet.of(S)

    def test_concat(self):
        left = RangeMap.uniform(3, U)
        right = RangeMap.uniform(2, S)
        combined = left.concat(right)
        assert combined.length == 5
        assert combined.policies_at(0) == PolicySet.of(U)
        assert combined.policies_at(4) == PolicySet.of(S)

    def test_repeat(self):
        rmap = RangeMap(2, [PolicyRange(0, 1, PolicySet.of(U))])
        repeated = rmap.repeat(3)
        assert repeated.length == 6
        assert [bool(repeated.policies_at(i)) for i in range(6)] == \
            [True, False, True, False, True, False]

    def test_repeat_zero(self):
        assert RangeMap.uniform(3, U).repeat(0).length == 0

    def test_add_policy_range(self):
        rmap = RangeMap(10).add_policy(U, 2, 5)
        assert rmap.policies_at(2) == PolicySet.of(U)
        assert rmap.policies_at(5) == PolicySet.empty()

    def test_add_policy_whole(self):
        assert RangeMap(4).add_policy(U).every_position_has(UntrustedData)

    def test_remove_policy(self):
        rmap = RangeMap.uniform(4, U).add_policy(S).remove_policy(U)
        assert not rmap.all_policies().has_type(UntrustedData)
        assert rmap.all_policies().has_type(SQLSanitized)

    def test_remove_policy_type(self):
        rmap = RangeMap.uniform(4, U).add_policy(S)
        assert not rmap.remove_policy_type(
            SQLSanitized).all_policies().has_type(SQLSanitized)

    def test_spread(self):
        rmap = RangeMap(10, [PolicyRange(0, 1, PolicySet.of(U))]).spread(10)
        assert rmap.every_position_has(UntrustedData)

    def test_with_length_truncates(self):
        rmap = RangeMap.uniform(10, U).with_length(3)
        assert rmap.length == 3
        assert rmap.every_position_has(UntrustedData)


class TestSerializationHelpers:
    def test_segments_roundtrip(self):
        rmap = RangeMap(10, [PolicyRange(1, 4, PolicySet.of(U, S))])
        rebuilt = RangeMap.from_segments(10, rmap.to_segments())
        assert rebuilt == rmap

    def test_equality(self):
        assert RangeMap.uniform(3, U) == RangeMap.uniform(3, U)
        assert RangeMap.uniform(3, U) != RangeMap.uniform(4, U)
