"""The public RESIN API (Table 3 of the paper).

``policy_add``, ``policy_remove`` and ``policy_get`` are the three functions
a programmer calls to annotate data with policy objects and to inspect a
datum's policy set.  Because Python strings, bytes and numbers are immutable,
``policy_add`` and ``policy_remove`` return a *new* value carrying the
updated policy set (exactly like the paper's Python prototype, Section 5).
"""

from __future__ import annotations

from typing import Any, Optional

from .policy import Policy
from .policyset import PolicySet
from ..tracking.propagation import policies_of, strip_policies
from ..tracking.tainted_bytes import TaintedBytes, taint_bytes
from ..tracking.tainted_number import (TaintedFloat, TaintedInt, taint_float,
                                       taint_int)
from ..tracking.tainted_str import TaintedStr, taint_str

__all__ = ["policy_add", "policy_remove", "policy_get", "taint", "untaint",
           "has_policy"]


def policy_add(data: Any, policy: Policy, start: int = 0,
               stop: Optional[int] = None) -> Any:
    """Add ``policy`` to ``data``'s policy set and return the annotated value.

    For strings and bytes the policy is attached to the character/byte range
    ``[start, stop)`` (the whole value by default); for numbers it is attached
    to the value as a whole.
    """
    if not isinstance(policy, Policy):
        raise TypeError(f"expected a Policy, got {type(policy).__name__}")
    if isinstance(data, TaintedStr):
        return data.with_policy(policy, start, stop)
    if isinstance(data, str):
        return taint_str(data).with_policy(policy, start, stop)
    if isinstance(data, TaintedBytes):
        return data.with_policy(policy, start, stop)
    if isinstance(data, (bytes, bytearray)):
        return taint_bytes(bytes(data)).with_policy(policy, start, stop)
    if isinstance(data, TaintedInt):
        return data.with_policy(policy)
    if isinstance(data, bool):
        raise TypeError("policies cannot be attached to booleans")
    if isinstance(data, int):
        return taint_int(data, (policy,))
    if isinstance(data, TaintedFloat):
        return data.with_policy(policy)
    if isinstance(data, float):
        return taint_float(data, (policy,))
    if isinstance(data, list):
        return [policy_add(item, policy) for item in data]
    if isinstance(data, tuple):
        return tuple(policy_add(item, policy) for item in data)
    if isinstance(data, dict):
        return {key: policy_add(value, policy) for key, value in data.items()}
    raise TypeError(
        f"cannot attach a policy to {type(data).__name__}; policies apply to "
        "primitive data (str, bytes, int, float) and containers thereof")


def policy_remove(data: Any, policy: Policy) -> Any:
    """Remove ``policy`` from ``data``'s policy set and return the result."""
    if isinstance(data, (TaintedStr, TaintedBytes, TaintedInt, TaintedFloat)):
        return data.without_policy(policy)
    if isinstance(data, list):
        return [policy_remove(item, policy) for item in data]
    if isinstance(data, tuple):
        return tuple(policy_remove(item, policy) for item in data)
    if isinstance(data, dict):
        return {key: policy_remove(value, policy)
                for key, value in data.items()}
    return data


def policy_get(data: Any) -> PolicySet:
    """Return the set of policies associated with ``data``.

    For strings and bytes this is the union over all characters/bytes; use
    ``data.policies_at(i)`` or ``data.rangemap`` for per-character queries.
    """
    return policies_of(data)


def has_policy(data: Any, policy_type, *, every_char: bool = False) -> bool:
    """True if ``data`` carries a policy of ``policy_type``.

    With ``every_char=True``, strings/bytes only count if *every* character
    carries such a policy (the check the script-injection filter needs,
    Figure 6 footnote).
    """
    if every_char and isinstance(data, (TaintedStr, TaintedBytes)):
        return data.rangemap.every_position_has(policy_type)
    return policy_get(data).has_type(policy_type)


def taint(data: Any, *policies: Policy) -> Any:
    """Convenience wrapper: attach several policies at once."""
    for policy in policies:
        data = policy_add(data, policy)
    return data


def untaint(data: Any) -> Any:
    """Return a plain, policy-free copy of ``data``.

    Only boundary code (declassifiers) should call this; see
    :func:`repro.tracking.propagation.strip_policies`.
    """
    return strip_policies(data)
