"""Taint propagation helpers.

Utility functions that application and substrate code use to keep policies
flowing across operations that plain Python would otherwise perform on
built-in types (losing the taint), e.g. f-string-style interpolation or
joining heterogeneous values.
"""

from __future__ import annotations

from typing import Any

from ..core.policyset import PolicySet, as_policyset
from .merge import merge_many
from .ranges import RangeMap
from .tainted_bytes import TaintedBytes
from .tainted_number import TaintedFloat, TaintedInt
from .tainted_str import TaintedStr, _concat_all

__all__ = [
    "policies_of",
    "to_tainted_str",
    "concat",
    "interpolate",
    "merge_values",
    "spread_policies",
    "strip_policies",
]


def policies_of(value: Any) -> PolicySet:
    """Union of all policies carried by ``value`` (any type)."""
    if isinstance(value, TaintedStr):
        return value.policies()
    if isinstance(value, TaintedBytes):
        return value.policies()
    if isinstance(value, (TaintedInt, TaintedFloat)):
        return value.policies()
    if isinstance(value, (list, tuple, set, frozenset)):
        result = PolicySet.empty()
        for item in value:
            result = result.union(policies_of(item))
        return result
    if isinstance(value, dict):
        result = PolicySet.empty()
        for key, item in value.items():
            result = result.union(policies_of(key)).union(policies_of(item))
        return result
    return PolicySet.empty()


def to_tainted_str(value: Any) -> TaintedStr:
    """Convert ``value`` to a :class:`TaintedStr`, preserving policies."""
    if isinstance(value, TaintedStr):
        return value
    if isinstance(value, str):
        return TaintedStr(value)
    if isinstance(value, TaintedBytes):
        return value.decode("utf-8", "replace")
    text = str(value)
    policies = policies_of(value)
    return TaintedStr(text, RangeMap.uniform(len(text), policies))


def concat(*values: Any) -> TaintedStr:
    """Concatenate values as strings, preserving character-level policies.

    The text is joined once, under one rope node over the values' maps.
    """
    pieces = [
        value if isinstance(value, str) else to_tainted_str(value)
        for value in values
    ]
    return _concat_all(pieces)


def interpolate(template: str, *args: Any, **kwargs: Any) -> TaintedStr:
    """Taint-preserving replacement for f-strings.

    ``interpolate("hello {name}", name=password)`` keeps the password policy
    on the interpolated characters only, like the paper's character-level
    tracking does for string concatenation.
    """
    return TaintedStr(template).format(*args, **kwargs)


def merge_values(*values: Any) -> PolicySet:
    """Merged policy set for a value computed from all of ``values`` in a way
    that cannot be tracked per character (checksums, hashes, aggregation)."""
    return merge_many(policies_of(value) for value in values)


def spread_policies(text: str, policies) -> TaintedStr:
    """Return ``text`` with ``policies`` applied to every character."""
    pset = as_policyset(policies)
    return TaintedStr(text, RangeMap.uniform(len(text), pset))


def strip_policies(value: Any) -> Any:
    """Return a plain (policy-free) copy of ``value``.

    This is deliberately explicit: only boundary code such as declassifying
    filter objects should ever call it.
    """
    if isinstance(value, TaintedStr):
        return value.plain()
    if isinstance(value, TaintedBytes):
        return value.plain()
    if isinstance(value, TaintedInt):
        return int(value)
    if isinstance(value, TaintedFloat):
        return float(value)
    if isinstance(value, list):
        return [strip_policies(v) for v in value]
    if isinstance(value, tuple):
        return tuple(strip_policies(v) for v in value)
    if isinstance(value, dict):
        return {strip_policies(k): strip_policies(v) for k, v in value.items()}
    return value
