"""Policy sets.

A datum may carry several policies at once (one per data flow assertion that
cares about it), collected in its *policy set* (Section 3.4).  ``PolicySet``
is an immutable, hashable container so that the character-range machinery in
:mod:`repro.tracking` can share and compare policy sets cheaply.

Policy sets are **hash-consed**: construction interns every set in a
process-wide weak table keyed by its frozen policy identity, so two sets
built from equal policies are the *same object*.  Identical provenance is
therefore pointer equality, which the taint hot path exploits: range-map
coalescing compares interned sets by identity first, and both
:meth:`PolicySet.union` and the merge protocol (:mod:`repro.tracking.merge`)
memoize results per ``(left, right)`` interned pair.  Deserialization
rehydrates to the interned instance for the same reason.  The table holds
only weak references — sets no live value points at are collected normally,
once the bounded memos no longer hold them.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Iterable, Iterator, Optional, Tuple, Type

from .policy import Policy, validate_policies

#: Upper bound on memoized unions (:meth:`PolicySet.union`); the memo is
#: cleared when full.  Its keys and values are strong references, so the
#: bound also bounds how many interned sets it keeps alive.  The memo lives
#: here, not on a policy or a set, so pickling either never carries it.
UNION_MEMO_SIZE = 1024

_union_memo: "Dict[Tuple[PolicySet, PolicySet], PolicySet]" = {}
#: Taken to insert, so that the bound holds under threads; lookups take none.
_union_lock = threading.Lock()


def _sort_key(policy: Policy) -> Tuple[str, str]:
    """The deterministic ordering key, computed once per policy instance
    (repr walks the serializable fields; value objects never change them)."""
    key = policy.__dict__.get("_sort_key_cache")
    if key is None:
        key = (type(policy).__name__, repr(policy))
        policy.__dict__["_sort_key_cache"] = key
    return key


class PolicySet:
    """An immutable, interned set of :class:`~repro.core.policy.Policy`
    objects.

    ``PolicySet(policies)`` returns the one canonical instance for that
    collection of policies: equal sets are identical (``a == b`` implies
    ``a is b``).  All state is built in :meth:`__new__`; ``__init__`` is a
    no-op so an interned hit is returned untouched.
    """

    __slots__ = ("_policies", "_hash", "_merge_profile", "_merge_cacheable",
                 "__weakref__")

    #: Process-wide intern table: frozenset of policies -> canonical set.
    _intern_table: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
    _intern_lock = threading.Lock()

    def __new__(cls, policies: Iterable[Policy] = ()):
        validated = validate_policies(policies)
        if len(validated) > 1:
            ordered: Tuple[Policy, ...] = tuple(
                sorted(validated, key=_sort_key))
        else:  # nothing to order — the overwhelmingly common case
            ordered = tuple(validated)
        if cls is not PolicySet:
            # Subclasses opt out of interning (identity would otherwise be
            # shared across classes); none exist in-tree.
            self = super().__new__(cls)
            self._init_state(ordered)
            return self
        key = frozenset(ordered)
        table = PolicySet._intern_table
        with PolicySet._intern_lock:
            existing = table.get(key)
            if existing is not None:
                return existing
            self = super().__new__(cls)
            self._init_state(ordered)
            table[key] = self
            return self

    def __init__(self, policies: Iterable[Policy] = ()):
        # All state is built in __new__ so that interned instances are
        # returned as-is; re-running initialization here would clobber them.
        pass

    def _init_state(self, ordered: Tuple[Policy, ...]) -> None:
        self._policies = ordered
        self._hash: Optional[int] = None
        self._merge_profile: Optional[str] = None
        self._merge_cacheable: Optional[bool] = None

    # -- factory helpers ---------------------------------------------------

    @classmethod
    def empty(cls) -> "PolicySet":
        return _EMPTY

    @classmethod
    def of(cls, *policies: Policy) -> "PolicySet":
        return cls(policies)

    # -- set operations ----------------------------------------------------

    def add(self, policy: Policy) -> "PolicySet":
        """Return a new set with ``policy`` added."""
        if policy in self:
            return self
        return PolicySet(self._policies + (policy,))

    def remove(self, policy: Policy) -> "PolicySet":
        """Return a new set with ``policy`` removed (no error if absent)."""
        if policy not in self:
            return self
        return PolicySet(p for p in self._policies if p != policy)

    def union(self, other: Iterable[Policy]) -> "PolicySet":
        """The set of this set's policies and ``other``'s.  The union of two
        non-empty interned sets is memoized per ``(self, other)`` pair."""
        if other is self:
            return self
        if not isinstance(other, PolicySet):
            extra = tuple(other)
            return self._with(extra) if extra else self
        if not other._policies:
            return self
        if not self._policies:
            return other
        key = (self, other)
        result = _union_memo.get(key)
        if result is None:
            result = self._with(other._policies)
            with _union_lock:
                if len(_union_memo) >= UNION_MEMO_SIZE:
                    _union_memo.clear()
                _union_memo[key] = result
        return result

    def _with(self, extra: Tuple[Policy, ...]) -> "PolicySet":
        mine = self._policies
        fresh = tuple(p for p in extra if p not in mine)
        return PolicySet(mine + fresh) if fresh else self

    def intersection(self, other: Iterable[Policy]) -> "PolicySet":
        other_set = set(other)
        return PolicySet(p for p in self._policies if p in other_set)

    def difference(self, other: Iterable[Policy]) -> "PolicySet":
        other_set = set(other)
        return PolicySet(p for p in self._policies if p not in other_set)

    def without_type(self, policy_type: Type[Policy]) -> "PolicySet":
        """Return a new set with every policy of ``policy_type`` removed.

        Useful for declassification-style filters, e.g. an encryption
        boundary that strips confidentiality policies (Section 3.2).
        """
        return PolicySet(
            p for p in self._policies if not isinstance(p, policy_type))

    def of_type(self, policy_type: Type[Policy]) -> Tuple[Policy, ...]:
        """Return the policies in this set that are instances of
        ``policy_type``."""
        return tuple(p for p in self._policies if isinstance(p, policy_type))

    def has_type(self, policy_type: Type[Policy]) -> bool:
        return any(isinstance(p, policy_type) for p in self._policies)

    # -- merge-protocol introspection (used by repro.tracking.merge) --------

    def merge_profile(self) -> str:
        """How this set behaves under the merge protocol.

        * ``"union"`` — every policy uses the stock ``Policy.merge`` with the
          ``"union"`` strategy: merging never drops or invents policies.
        * ``"default"`` — stock ``Policy.merge`` throughout, but at least one
          policy uses ``"intersect"``.
        * ``"custom"`` — an overridden ``merge`` or any other strategy
          (including ``"reject"``); no shortcut may skip the protocol.

        Computed once per interned instance (value-object contract: policy
        classes do not change their merge behaviour at runtime).
        """
        profile = self._merge_profile
        if profile is None:
            profile = "union"
            for policy in self._policies:
                if (type(policy).merge is not Policy.merge
                        or policy.merge_strategy not in ("union",
                                                         "intersect")):
                    profile = "custom"
                    break
                if policy.merge_strategy == "intersect":
                    profile = "default"
            self._merge_profile = profile
        return profile

    def merge_cacheable(self) -> bool:
        """True if every member opts into merge memoization
        (``Policy.merge_cacheable``, default True)."""
        cacheable = self._merge_cacheable
        if cacheable is None:
            cacheable = all(getattr(p, "merge_cacheable", True)
                            for p in self._policies)
            self._merge_cacheable = cacheable
        return cacheable

    # -- container protocol -------------------------------------------------

    def __iter__(self) -> Iterator[Policy]:
        return iter(self._policies)

    def __len__(self) -> int:
        return len(self._policies)

    def __bool__(self) -> bool:
        return bool(self._policies)

    def __contains__(self, policy: object) -> bool:
        return policy in self._policies

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if isinstance(other, PolicySet):
            return set(self._policies) == set(other._policies)
        if isinstance(other, (set, frozenset, tuple, list)):
            return set(self._policies) == set(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._policies))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(repr(p) for p in self._policies)
        return f"PolicySet({{{inner}}})"

    # -- copy / pickle safety ------------------------------------------------

    # Interned value objects: copying must never produce a second live
    # instance for the same policies (identity is the interning contract).

    def __copy__(self) -> "PolicySet":
        return self

    def __deepcopy__(self, memo) -> "PolicySet":
        return self

    def __reduce__(self):
        return (PolicySet, (tuple(self._policies),))


_EMPTY = PolicySet()


def as_policyset(value) -> PolicySet:
    """Coerce ``value`` (None, a Policy, an iterable of policies, or a
    PolicySet) into a :class:`PolicySet`."""
    if value is None:
        return _EMPTY
    if isinstance(value, PolicySet):
        return value
    if isinstance(value, Policy):
        return PolicySet((value,))
    return PolicySet(value)
