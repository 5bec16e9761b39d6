"""Property tests for the taint hot path.

Three contracts introduced by the lazy-rope / hash-consing / merge-memo
rework, each checked against a brute-force oracle:

* flattening a lazy rope of concat/slice/repeat nodes yields exactly what
  eager construction would, position by position and range by range;
* interned ``PolicySet`` equality is identity (and every rehydration path —
  copy, deepcopy, pickle — lands on the interned instance);
* the memoized merge returns the same verdicts as the uncached protocol,
  including ``MergeError`` vetoes and ``"intersect"``-strategy drops.
"""

import copy
import pickle

import pytest
from hypothesis import example, given, strategies as st

from repro.core.exceptions import MergeError
from repro.core.policy import Policy
from repro.core.policyset import PolicySet
from repro.policies import AuthenticData, SQLSanitized, UntrustedData
from repro.tracking.merge import (
    _merge_uncached,
    clear_merge_cache,
    merge_cache_info,
    merge_policysets,
)
from repro.tracking.ranges import PolicyRange, RangeMap

U = UntrustedData("p")
S = SQLSanitized()
A = AuthenticData("ca")

policies = st.sampled_from([U, S, A])


class NoMixPolicy(Policy):
    merge_strategy = "reject"


@st.composite
def rangemaps(draw, max_length=12):
    length = draw(st.integers(0, max_length))
    n_ranges = draw(st.integers(0, 4))
    ranges = []
    for _ in range(n_ranges):
        if length == 0:
            break
        start = draw(st.integers(0, length - 1))
        stop = draw(st.integers(start + 1, length))
        ranges.append(PolicyRange(start, stop, PolicySet.of(draw(policies))))
    return RangeMap(length, ranges)


def per_position(rmap):
    return [rmap.policies_at(index) for index in range(rmap.length)]


rope_ops = st.lists(
    st.one_of(
        st.tuples(st.just("cat"), rangemaps()),
        st.tuples(st.just("slice"), st.integers(0, 30), st.integers(0, 30)),
        st.tuples(st.just("repeat"), st.integers(0, 3)),
    ),
    max_size=6,
)


class TestLazyRopeParity:
    # Four ranges repeated 3**6 times: 2916 ranges over 3645 positions, read
    # position by position, so one read must not scan every range.
    @example(
        base=RangeMap(
            5,
            [
                PolicyRange(0, 1, PolicySet.of(U)),
                PolicyRange(1, 2, PolicySet.of(S)),
                PolicyRange(2, 3, PolicySet.of(U)),
                PolicyRange(3, 5, PolicySet.of(A)),
            ],
        ),
        sequence=[("repeat", 3)] * 6,
    )
    @given(base=rangemaps(), sequence=rope_ops)
    def test_flatten_matches_eager_oracle(self, base, sequence):
        lazy = base
        oracle = per_position(base)
        for op in sequence:
            if op[0] == "cat":
                lazy = lazy.concat(op[1])
                oracle = oracle + per_position(op[1])
            elif op[0] == "slice":
                start = min(op[1], lazy.length)
                stop = max(start, min(op[2], lazy.length))
                lazy = lazy.slice(start, stop)
                oracle = oracle[start:stop]
            else:
                lazy = lazy.repeat(op[1])
                oracle = oracle * op[1]
        assert per_position(lazy) == oracle

    @given(base=rangemaps(), sequence=rope_ops)
    def test_flattened_form_is_eagerly_normalized(self, base, sequence):
        lazy = base
        for op in sequence:
            if op[0] == "cat":
                lazy = lazy.concat(op[1])
            elif op[0] == "slice":
                start = min(op[1], lazy.length)
                stop = max(start, min(op[2], lazy.length))
                lazy = lazy.slice(start, stop)
            else:
                lazy = lazy.repeat(op[1])
        flattened = lazy.ranges
        # The flattened tuple must be exactly what eager construction
        # produces from the same per-position content: re-normalizing it is
        # the identity, so serialization round-trips are byte-identical.
        eager = RangeMap(
            lazy.length,
            [
                PolicyRange(index, index + 1, pset)
                for index, pset in enumerate(per_position(lazy))
                if pset
            ],
        )
        assert flattened == eager.ranges
        assert RangeMap(lazy.length, flattened).ranges == flattened
        assert lazy.to_segments() == eager.to_segments()


class TestInterning:
    @given(left=st.lists(policies, max_size=3), right=st.lists(policies, max_size=3))
    def test_equality_iff_identity(self, left, right):
        first = PolicySet(left)
        second = PolicySet(right)
        assert (first == second) == (first is second)

    @given(members=st.lists(policies, max_size=3))
    def test_rehydration_lands_on_the_interned_instance(self, members):
        canonical = PolicySet(members)
        assert PolicySet(list(reversed(members))) is canonical
        assert copy.copy(canonical) is canonical
        assert copy.deepcopy(canonical) is canonical
        assert pickle.loads(pickle.dumps(canonical)) is canonical


class TestMergeMemoParity:
    @given(left=st.lists(policies, max_size=3), right=st.lists(policies, max_size=3))
    def test_memoized_equals_uncached(self, left, right):
        lset = PolicySet(left)
        rset = PolicySet(right)
        expected = _merge_uncached(lset, rset)
        clear_merge_cache()
        first = merge_policysets(lset, rset)
        second = merge_policysets(lset, rset)
        assert first == expected
        assert second is first

    @given(members=st.lists(policies, max_size=3))
    def test_fast_paths_match_protocol(self, members):
        pset = PolicySet(members)
        empty = PolicySet.empty()
        # Same-set and empty-operand shortcuts must not change "intersect"
        # semantics (AuthenticData drops when the other side lacks it).
        assert merge_policysets(pset, empty) == _merge_uncached(pset, empty)
        assert merge_policysets(empty, pset) == _merge_uncached(empty, pset)
        assert merge_policysets(pset, pset) == _merge_uncached(pset, pset)

    @given(others=st.lists(policies, max_size=2))
    def test_reject_vetoes_and_is_never_cached(self, others):
        nomix = PolicySet.of(NoMixPolicy())
        other = PolicySet(others)
        clear_merge_cache()
        for _ in range(2):
            with pytest.raises(MergeError):
                merge_policysets(nomix, other)
        assert merge_cache_info()["size"] == 0
