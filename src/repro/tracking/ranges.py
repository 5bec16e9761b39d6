"""Character-range policy maps.

RESIN tracks policies at character granularity (Section 3.4): concatenating a
string annotated with policy ``p1`` and one annotated with ``p2`` yields a
string whose first characters carry only ``p1`` and whose last characters
carry only ``p2``.  :class:`RangeMap` is the data structure behind that: an
ordered list of half-open ``[start, stop)`` ranges, each mapping to a
:class:`~repro.core.policyset.PolicySet`.  Ranges never overlap, are always
sorted, and adjacent ranges with equal policy sets are coalesced.

Concatenation, step-1 slicing, and repetition are **lazy**: they return
O(1) rope nodes (a concatenation of child maps, an offset view over a base
map, a repeat of a base map) that share the children's immutable range
tuples instead of copying them.  The node tree is flattened into the
normalized range tuple on first *inspection* — ``ranges``, ``policies_at``,
equality, serialization — and the result is cached, so a page built from
thousands of concatenations pays for one flatten at the output boundary
instead of one copy per operation.  Flattening is iterative (no recursion,
however deep the rope) and produces exactly the ranges eager construction
would: normalization invariants are preserved, so ``__eq__``, xattr, and
WAL round-trips are byte-identical with the eager representation.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator, List, Optional, Tuple

from ..core.policy import Policy
from ..core.policyset import PolicySet, as_policyset


class PolicyRange:
    """A half-open character range ``[start, stop)`` carrying a policy set."""

    __slots__ = ("start", "stop", "policies")

    def __init__(self, start: int, stop: int, policies: PolicySet):
        if start < 0 or stop < start:
            raise ValueError(f"invalid range [{start}, {stop})")
        self.start = start
        self.stop = stop
        self.policies = as_policyset(policies)

    def __len__(self) -> int:
        return self.stop - self.start

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolicyRange):
            return NotImplemented
        return (
            self.start == other.start
            and self.stop == other.stop
            and self.policies == other.policies
        )

    def __repr__(self) -> str:
        return f"PolicyRange({self.start}, {self.stop}, {self.policies!r})"

    def shifted(self, delta: int) -> "PolicyRange":
        return PolicyRange(self.start + delta, self.stop + delta, self.policies)


# Lazy node tags.  A deferred map's ``_node`` is one of:
#   (_CAT, (child, child, ...))      concatenation of child maps, in order
#   (_SLICE, base, lo, hi)           the window [lo, hi) of ``base``, shifted
#   (_REPEAT, base, count)           ``count`` copies of ``base``
_CAT = 0
_SLICE = 1
_REPEAT = 2


def _first_overlap(ranges: Tuple[PolicyRange, ...], lo: int) -> int:
    """Index of the first range ending after position ``lo`` (binary search;
    normalized ranges are sorted and disjoint, so stops are increasing)."""
    low, high = 0, len(ranges)
    while low < high:
        mid = (low + high) // 2
        if ranges[mid].stop <= lo:
            low = mid + 1
        else:
            high = mid
    return low


def _emit(
    out: List[PolicyRange],
    ranges: Tuple[PolicyRange, ...],
    lo: int,
    hi: int,
    shift: int,
) -> None:
    """Append the sub-ranges of normalized ``ranges`` overlapping ``[lo, hi)``
    to ``out``, shifted by ``shift``, coalescing at the junction.  Ranges that
    land unclipped and unshifted are reused, not copied."""
    for index in range(_first_overlap(ranges, lo), len(ranges)):
        rng = ranges[index]
        if rng.start >= hi:
            break
        start = max(rng.start, lo) + shift
        stop = min(rng.stop, hi) + shift
        policies = rng.policies
        if out:
            last = out[-1]
            if last.stop == start and last.policies == policies:
                out[-1] = PolicyRange(last.start, stop, policies)
                continue
        if start == rng.start and stop == rng.stop:
            out.append(rng)
        else:
            out.append(PolicyRange(start, stop, policies))


def _sliced_ranges(
    ranges: Tuple[PolicyRange, ...], lo: int, hi: int
) -> List[PolicyRange]:
    """The sub-ranges of normalized ``ranges`` overlapping ``[lo, hi)``,
    clamped and shifted to start at 0.  The result is itself normalized."""
    out: List[PolicyRange] = []
    for rng in ranges:
        if rng.stop <= lo:
            continue
        if rng.start >= hi:
            break
        out.append(
            PolicyRange(max(rng.start, lo) - lo, min(rng.stop, hi) - lo, rng.policies)
        )
    return out


class RangeMap:
    """Maps character positions of a string of length ``length`` to policy
    sets.

    Positions not covered by any range have the empty policy set.  The map is
    immutable: every operation returns a new map.  ``concat``, step-1
    ``slice``, and ``repeat`` return lazy rope nodes; every inspecting
    operation flattens (once, cached) first.
    """

    __slots__ = ("length", "_ranges", "_node", "_empty")

    def __init__(self, length: int, ranges: Iterable[PolicyRange] = ()):
        if length < 0:
            raise ValueError("length must be non-negative")
        self.length = length
        self._ranges: Optional[Tuple[PolicyRange, ...]] = self._normalize(
            length, ranges
        )
        self._node = None
        self._empty: Optional[bool] = not self._ranges

    # -- construction -------------------------------------------------------

    @classmethod
    def empty(cls, length: int) -> "RangeMap":
        return cls(length)

    @classmethod
    def uniform(cls, length: int, policies) -> "RangeMap":
        """A map in which every position carries ``policies``."""
        pset = as_policyset(policies)
        if length == 0 or not pset:
            return cls(length)
        return cls(length, [PolicyRange(0, length, pset)])

    @classmethod
    def _deferred(cls, length: int, node, empty: Optional[bool]) -> "RangeMap":
        """A lazy rope node (internal).  ``empty`` is the emptiness hint:
        True/False when known from the children, None when only flattening
        can tell."""
        self = cls.__new__(cls)
        self.length = length
        self._ranges = None
        self._node = node
        self._empty = empty
        return self

    @classmethod
    def _trusted(cls, length: int, ranges: Tuple[PolicyRange, ...]) -> "RangeMap":
        """An eager map from ranges already known to satisfy the
        normalization invariants (internal)."""
        self = cls.__new__(cls)
        self.length = length
        self._ranges = ranges
        self._node = None
        self._empty = not ranges
        return self

    @staticmethod
    def _normalize(
        length: int, ranges: Iterable[PolicyRange]
    ) -> Tuple[PolicyRange, ...]:
        # Clamp to [0, length), drop empty ranges and empty policy sets,
        # split overlaps by recomputing per-boundary segments, and coalesce
        # adjacent equal segments.
        clamped: List[PolicyRange] = []
        for rng in ranges:
            start = max(0, rng.start)
            stop = min(length, rng.stop)
            if stop > start and rng.policies:
                clamped.append(PolicyRange(start, stop, rng.policies))
        if len(clamped) < 2:
            return tuple(clamped)

        # Sweep the boundaries in order, keeping only the ranges that cover
        # the current segment: many disjoint ranges (a long repeated string)
        # then cost time linear in their number.
        clamped.sort(key=attrgetter("start"))
        boundaries = sorted({r.start for r in clamped} | {r.stop for r in clamped})
        segments: List[PolicyRange] = []
        covering: List[PolicyRange] = []
        pending = 0
        for lo, hi in zip(boundaries, boundaries[1:]):
            while pending < len(clamped) and clamped[pending].start <= lo:
                covering.append(clamped[pending])
                pending += 1
            covering = [rng for rng in covering if rng.stop > lo]
            policies: PolicySet = PolicySet.empty()
            for rng in covering:
                policies = policies.union(rng.policies)
            if policies:
                segments.append(PolicyRange(lo, hi, policies))

        coalesced: List[PolicyRange] = []
        for seg in segments:
            if (
                coalesced
                and coalesced[-1].stop == seg.start
                and coalesced[-1].policies == seg.policies
            ):
                coalesced[-1] = PolicyRange(
                    coalesced[-1].start, seg.stop, seg.policies
                )
            else:
                coalesced.append(seg)
        return tuple(coalesced)

    # -- lazy flattening -----------------------------------------------------

    def _materialize(self) -> Tuple[PolicyRange, ...]:
        """Flatten the rope into the normalized range tuple (cached).

        One iterative pass: work items are ``(map, lo, hi, shift)`` windows
        ("emit this map's ranges within [lo, hi), shifted by shift"), pushed
        in reverse so the output stays ordered.  Intermediate rope nodes are
        traversed, never materialized, so flattening an n-piece concat chain
        emits each leaf range exactly once — O(total ranges), not O(n²) —
        and no rope depth can recurse past the explicit stack.
        """
        ranges = self._ranges
        if ranges is not None:
            return ranges
        out: List[PolicyRange] = []
        stack = [(self, 0, self.length, 0)]
        while stack:
            current, lo, hi, shift = stack.pop()
            leaf_ranges = current._ranges
            if leaf_ranges is not None:
                _emit(out, leaf_ranges, lo, hi, shift)
                continue
            node = current._node
            tag = node[0]
            if tag == _CAT:
                items = []
                offset = 0
                for child in node[1]:
                    clo = max(lo, offset)
                    chi = min(hi, offset + child.length)
                    if clo < chi:
                        items.append((child, clo - offset, chi - offset, shift + offset))
                    offset += child.length
                stack.extend(reversed(items))
            elif tag == _SLICE:
                base = node[1]
                stack.append((base, node[2] + lo, node[2] + hi, shift - node[2]))
            else:  # _REPEAT
                base, count = node[1], node[2]
                size = base.length
                items = []
                for index in range(count):
                    offset = index * size
                    clo = max(lo, offset)
                    chi = min(hi, offset + size)
                    if clo < chi:
                        items.append((base, clo - offset, chi - offset, shift + offset))
                stack.extend(reversed(items))
        result = tuple(out)
        # Publish the ranges before dropping the node, so a concurrent
        # reader never sees neither.
        self._ranges = result
        self._empty = not result
        self._node = None
        return result

    # -- queries -------------------------------------------------------------

    @property
    def ranges(self) -> Tuple[PolicyRange, ...]:
        return self._materialize()

    def is_empty(self) -> bool:
        """True if no position carries any policy."""
        empty = self._empty
        if empty is None:
            empty = not self._materialize()
        return empty

    def is_materialized(self) -> bool:
        """True once the rope has been flattened (or was built eagerly)."""
        return self._ranges is not None

    def policies_at(self, index: int) -> PolicySet:
        """Policy set at character position ``index``."""
        if index < 0:
            index += self.length
        if not 0 <= index < self.length:
            raise IndexError("position out of range")
        ranges = self._materialize()
        found = _first_overlap(ranges, index)
        if found < len(ranges) and ranges[found].start <= index:
            return ranges[found].policies
        return PolicySet.empty()

    def all_policies(self) -> PolicySet:
        """Union of the policies of every position."""
        result = PolicySet.empty()
        for rng in self._materialize():
            result = result.union(rng.policies)
        return result

    def covered(self) -> int:
        """Number of positions carrying at least one policy."""
        return sum(len(rng) for rng in self._materialize())

    def positions_with(self, policy_type) -> Iterator[int]:
        """Yield every position whose policy set contains an instance of
        ``policy_type``."""
        for rng in self._materialize():
            if rng.policies.has_type(policy_type):
                yield from range(rng.start, rng.stop)

    def every_position_has(self, policy_type) -> bool:
        """True if every position (of a non-empty string) carries a policy of
        ``policy_type``."""
        if self.length == 0:
            return True
        covered = 0
        for rng in self._materialize():
            if rng.policies.has_type(policy_type):
                covered += len(rng)
        return covered == self.length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeMap):
            return NotImplemented
        return (
            self.length == other.length
            and self._materialize() == other._materialize()
        )

    def __repr__(self) -> str:
        return f"RangeMap(length={self.length}, ranges={list(self._materialize())!r})"

    # -- transformations ------------------------------------------------------

    def slice(self, start: int, stop: int, step: int = 1) -> "RangeMap":
        """Range map for ``s[start:stop:step]`` of a string with this map.

        ``start``, ``stop`` and ``step`` must already be resolved the way
        ``slice.indices(len(s))`` resolves them (the tainted value types do
        this before calling); resolving them again here would mangle the
        sentinel values CPython uses for empty negative-step slices.
        """
        if step == 0:
            raise ValueError("slice step cannot be zero")
        if step == 1:
            new_length = max(0, stop - start)
            lo = max(0, min(start, self.length))
            hi = max(lo, min(stop, self.length))
            if new_length == 0:
                return RangeMap(0)
            if lo == 0 and hi == self.length and new_length == self.length:
                return self
            target: RangeMap = self
            if new_length == hi - lo:
                # Walk the rope toward the child that contains the window,
                # composing offset views instead of stacking them.
                while target._ranges is None:
                    node = target._node
                    if node[0] == _SLICE and target.length == node[3] - node[2]:
                        lo += node[2]
                        hi += node[2]
                        target = node[1]
                        continue
                    if node[0] == _CAT:
                        offset = 0
                        descended = False
                        for child in node[1]:
                            if lo >= offset and hi <= offset + child.length:
                                lo -= offset
                                hi -= offset
                                target = child
                                descended = True
                                break
                            offset += child.length
                        if descended:
                            if lo == 0 and hi == target.length:
                                return target
                            continue
                    break
            if target._ranges is not None:
                return RangeMap._trusted(
                    new_length, tuple(_sliced_ranges(target._ranges, lo, hi))
                )
            if target._empty is True:
                return RangeMap(new_length)
            return RangeMap._deferred(new_length, (_SLICE, target, lo, hi), None)
        positions = range(start, stop, step)
        new_length = len(positions)
        ranges = []
        for new_index, old_index in enumerate(positions):
            if not 0 <= old_index < self.length:
                continue
            pset = self.policies_at(old_index)
            if pset:
                ranges.append(PolicyRange(new_index, new_index + 1, pset))
        return RangeMap(new_length, ranges)

    def concat(self, other: "RangeMap") -> "RangeMap":
        """Range map for the concatenation of two strings (O(1): a rope
        node sharing both operands)."""
        if self.length == 0:
            return other
        if other.length == 0:
            return self
        if self._empty is True and other._empty is True:
            return RangeMap(self.length + other.length)
        if self._empty is False or other._empty is False:
            empty: Optional[bool] = False
        else:
            empty = None
        return RangeMap._deferred(
            self.length + other.length, (_CAT, (self, other)), empty
        )

    @classmethod
    def concat_many(cls, maps: Iterable["RangeMap"]) -> "RangeMap":
        """Range map for the concatenation of several strings — one rope
        node over all the pieces, however many there are."""
        children = [m for m in maps if m.length]
        if not children:
            return cls(0)
        if len(children) == 1:
            return children[0]
        total = sum(m.length for m in children)
        if all(m._empty is True for m in children):
            return cls(total)
        if any(m._empty is False for m in children):
            empty: Optional[bool] = False
        else:
            empty = None
        return cls._deferred(total, (_CAT, tuple(children)), empty)

    def repeat(self, count: int) -> "RangeMap":
        """Range map for ``s * count``."""
        if count <= 0 or self.length == 0:
            return RangeMap(0)
        if count == 1:
            return self
        if self._empty is True:
            return RangeMap(self.length * count)
        return RangeMap._deferred(
            self.length * count, (_REPEAT, self, count), self._empty
        )

    def add_policy(
        self, policy: Policy, start: int = 0, stop: Optional[int] = None
    ) -> "RangeMap":
        """Attach ``policy`` to positions ``[start, stop)`` (whole string by
        default)."""
        if stop is None:
            stop = self.length
        new_range = PolicyRange(
            max(0, start), min(self.length, stop), PolicySet.of(policy)
        )
        if len(new_range) == 0:
            return self
        return RangeMap(self.length, list(self._materialize()) + [new_range])

    def remove_policy(self, policy: Policy) -> "RangeMap":
        """Remove ``policy`` from every position."""
        return RangeMap(
            self.length,
            [
                PolicyRange(r.start, r.stop, r.policies.remove(policy))
                for r in self._materialize()
            ],
        )

    def remove_policy_type(self, policy_type) -> "RangeMap":
        """Remove every policy of ``policy_type`` from every position."""
        return RangeMap(
            self.length,
            [
                PolicyRange(r.start, r.stop, r.policies.without_type(policy_type))
                for r in self._materialize()
            ],
        )

    def with_length(self, length: int) -> "RangeMap":
        """Clamp or extend the map to a new string length.

        New positions (if any) carry no policy; positions beyond ``length``
        are dropped.  Used by transformations that change string length in
        ways we cannot track per-character (rare unicode case mappings)."""
        return RangeMap(length, self._materialize())

    def spread(self, length: int) -> "RangeMap":
        """Apply the union of all policies to every position of a string of
        ``length`` characters.  Used as the conservative fallback for
        operations whose per-character mapping is unknown."""
        return RangeMap.uniform(length, self.all_policies())

    # -- (de)serialization helpers --------------------------------------------

    def to_segments(self) -> List[Tuple[int, int, List[Policy]]]:
        """Plain-data view of the map, for persistence."""
        return [(r.start, r.stop, list(r.policies)) for r in self._materialize()]

    @classmethod
    def from_segments(
        cls,
        length: int,
        segments: Iterable[Tuple[int, int, Iterable[Policy]]],
    ) -> "RangeMap":
        return cls(
            length,
            [
                PolicyRange(start, stop, as_policyset(policies))
                for start, stop, policies in segments
            ],
        )
