"""Policy objects.

A *policy object* (Section 3.3 of the paper) is a language-level object that a
programmer attaches to data.  It carries per-datum metadata (for example, the
e-mail address of a password's owner) and assertion-checking code
(``export_check``).  The RESIN runtime propagates policy objects along with
the data they annotate and invokes them when the data crosses a data flow
boundary guarded by a filter object.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Set

from .exceptions import MergeError


class Policy:
    """Base class for all policy objects.

    Subclasses typically:

    * store per-datum metadata in instance attributes (these are the fields
      that get serialized for persistent policies, see
      :mod:`repro.core.serialization`);
    * implement :meth:`export_check` to assert on export boundaries; and/or
    * override :meth:`merge` to choose a merge strategy other than union.

    Policies are value objects: two policies of the same class with the same
    serializable fields compare equal and hash equal, so that a policy set
    never holds redundant duplicates.
    """

    #: Class-level marker; subclasses representing integrity ("this data has
    #: property X") rather than confidentiality can set this to ``"intersect"``
    #: to get drop-on-merge semantics without overriding :meth:`merge`.
    merge_strategy = "union"

    #: Merge results for policy sets containing this policy may be memoized
    #: per interned ``(left, right)`` pair (:mod:`repro.tracking.merge`).
    #: This is sound whenever :meth:`merge` is a pure function of the two
    #: policy sets — true for the stock strategies and for any value-object
    #: merge.  A policy whose ``merge`` consults outside state (time, a
    #: request context, a counter) must set this to ``False`` to opt out.
    merge_cacheable = True

    def export_check(self, context: Mapping[str, Any]) -> None:
        """Check whether the annotated data may cross a boundary.

        ``context`` describes the boundary (its ``type`` — ``'http'``,
        ``'email'``, ``'file'``, ``'sql'``, … — plus channel-specific keys
        such as the e-mail recipient).  Raise a
        :class:`~repro.core.exceptions.PolicyViolation` to veto the flow;
        return normally to allow it.

        The base implementation allows every flow: a bare :class:`Policy` is
        a pure tracking marker.
        """

    def merge(self, other_policies: "PolicySetLike") -> Iterable["Policy"]:
        """Return the policies that should apply to data merged from this
        datum and a datum carrying ``other_policies``.

        Called by the runtime when two data elements are combined in a way
        that cannot be tracked at character level (e.g. integer addition,
        hashing).  The default follows the policy's :attr:`merge_strategy`:

        * ``"union"`` — keep this policy on the result regardless of the
          other operand (confidentiality-style, e.g. ``UntrustedData``);
        * ``"intersect"`` — keep this policy only if the other operand also
          carries a policy of the same class (integrity-style, e.g.
          ``AuthenticData``);
        * ``"reject"`` — refuse the merge entirely by raising
          :class:`~repro.core.exceptions.MergeError`.
        """
        if self.merge_strategy == "union":
            return (self,)
        if self.merge_strategy == "intersect":
            for other in other_policies:
                if isinstance(other, type(self)):
                    return (self,)
            return ()
        if self.merge_strategy == "reject":
            raise MergeError(
                f"{type(self).__name__} does not permit merging",
                policy=self, other=other_policies)
        raise MergeError(
            f"unknown merge strategy {self.merge_strategy!r}", policy=self)

    # -- value-object behaviour -------------------------------------------

    def serializable_fields(self) -> Dict[str, Any]:
        """Return the fields that define this policy's identity and that are
        stored when the policy is persisted (Section 3.4.1: only the class
        name and data fields are serialized, never code)."""
        return {
            key: value
            for key, value in sorted(vars(self).items())
            if not key.startswith("_")
        }

    def _identity(self):
        # Value-object contract: fields are fixed once the policy is in
        # use, so the identity tuple is computed once per instance.  The
        # cache lives in __dict__ under a leading underscore, invisible to
        # serializable_fields and to serialization.
        cached = self.__dict__.get("_identity_cache")
        if cached is not None:
            return cached

        def freeze(value):
            if isinstance(value, dict):
                return tuple(sorted((k, freeze(v)) for k, v in value.items()))
            if isinstance(value, (list, tuple)):
                return tuple(freeze(v) for v in value)
            if isinstance(value, (set, frozenset)):
                return tuple(sorted(freeze(v) for v in value))
            return value

        identity = (type(self), freeze(self.serializable_fields()))
        self.__dict__["_identity_cache"] = identity
        return identity

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Policy):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash_cache")
        if cached is not None:
            return cached
        try:
            value = hash(self._identity())
        except TypeError:
            # Unhashable field values: fall back to identity hashing.
            value = object.__hash__(self)
        self.__dict__["_hash_cache"] = value
        return value

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{k}={v!r}" for k, v in self.serializable_fields().items())
        return f"{type(self).__name__}({fields})"


# Typing helper used in docstrings/signatures; resolved lazily to avoid a
# circular import with policyset.py.
PolicySetLike = Iterable[Policy]


def is_policy(obj: Any) -> bool:
    """Return True if ``obj`` is a policy object."""
    return isinstance(obj, Policy)


def validate_policies(policies: Iterable[Any]) -> Set[Policy]:
    """Validate that every element of ``policies`` is a :class:`Policy` and
    return them as a set."""
    result: Set[Policy] = set()
    for policy in policies:
        if not isinstance(policy, Policy):
            raise TypeError(
                f"expected a Policy instance, got {type(policy).__name__}")
        result.add(policy)
    return result
