"""Policy tracking for numbers.

Numbers cannot be tracked at character granularity, so combining two numbers
merges their policy sets via the policies' ``merge`` methods
(Section 3.4.2).  The paper notes that none of its data flow assertions ever
needed policies on integers; we still provide full support because the merge
protocol is part of the API (and Table 5 benchmarks integer addition with an
empty policy).
"""

from __future__ import annotations

from typing import Optional

from ..core.policy import Policy
from ..core.policyset import PolicySet, as_policyset
from .merge import merge_many
from .tainted_str import Tainted, policies_of

__all__ = ["TaintedInt", "TaintedFloat", "taint_int", "taint_float"]


def taint_int(value: int, policies=None) -> "TaintedInt":
    return TaintedInt(value, as_policyset(policies))


def taint_float(value: float, policies=None) -> "TaintedFloat":
    return TaintedFloat(value, as_policyset(policies))


def _result_policies(*operands) -> PolicySet:
    """Merge the policy sets of all operands pairwise.

    ``merge_many`` streams through the interned-set fast paths, so the
    common all-empty and shared-provenance cases never run the per-policy
    merge protocol.
    """
    return merge_many(policies_of(operand) for operand in operands)


class _TaintedNumber(Tainted):
    """The protocol for numbers: one policy set for the whole value.

    ``with_policy`` accepts ``start``/``stop`` and ``has_policy_type``
    accepts ``every_char`` as strings do, and ignores them: a number has no
    positions.
    """

    __slots__ = ()
    _policyset: PolicySet

    def policies(self) -> PolicySet:
        return self._policyset

    def with_policy(self, policy: Policy, start: int = 0, stop: Optional[int] = None):
        return type(self)(self, self._policyset.add(policy))

    def without_policy(self, policy: Policy):
        return type(self)(self, self._policyset.remove(policy))

    def without_policy_type(self, policy_type):
        return type(self)(self, self._policyset.without_type(policy_type))

    def has_policy_type(self, policy_type, *, every_char: bool = False) -> bool:
        return self._policyset.has_type(policy_type)

    def _rewrap(self, value, *operands):
        """Wrap ``value`` (the raw result of an arithmetic op) with the
        merged policies of ``self`` and the other operands."""
        if value is NotImplemented:
            return NotImplemented
        policies = _result_policies(self, *operands)
        if isinstance(value, bool):
            return value  # comparisons and predicates stay plain
        if isinstance(value, int):
            return TaintedInt(value, policies) if policies else value
        if isinstance(value, float):
            return TaintedFloat(value, policies) if policies else value
        return value


def _binary(name):
    int_op = getattr(int, name, None)
    float_op = getattr(float, name, None)

    def op(self, other):
        base_op = int_op if isinstance(self, int) else float_op
        if base_op is None:  # pragma: no cover - defensive
            return NotImplemented
        result = base_op(self, other)
        if (
            result is NotImplemented
            and isinstance(self, int)
            and isinstance(other, float)
            and float_op is not None
        ):
            # Mixed int/float arithmetic: fall back to float semantics so the
            # policy still propagates (int.__add__ alone would defer to
            # float.__radd__ and drop the taint).
            result = float_op(float(self), other)
        return self._rewrap(result, other)

    op.__name__ = name
    return op


def _unary(name):
    int_op = getattr(int, name, None)
    float_op = getattr(float, name, None)

    def op(self):
        base_op = int_op if isinstance(self, int) else float_op
        result = base_op(self)
        return self._rewrap(result)

    op.__name__ = name
    return op


_BINARY_METHODS = [
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__floordiv__",
    "__rfloordiv__",
    "__mod__",
    "__rmod__",
    "__pow__",
    "__rpow__",
    "__and__",
    "__rand__",
    "__or__",
    "__ror__",
    "__xor__",
    "__rxor__",
    "__lshift__",
    "__rlshift__",
    "__rshift__",
    "__rrshift__",
    "__divmod__",
    "__rdivmod__",
]

_UNARY_METHODS = ["__neg__", "__pos__", "__abs__", "__invert__"]


class TaintedInt(_TaintedNumber, int):
    """An integer carrying a policy set."""

    _plain_type = int

    def __new__(cls, value: int = 0, policies: Optional[PolicySet] = None):
        self = super().__new__(cls, value)
        self._policyset = as_policyset(policies)
        return self


class TaintedFloat(_TaintedNumber, float):
    """A float carrying a policy set."""

    _plain_type = float

    def __new__(cls, value: float = 0.0, policies: Optional[PolicySet] = None):
        self = super().__new__(cls, value)
        self._policyset = as_policyset(policies)
        return self


for _name in _BINARY_METHODS:
    if hasattr(int, _name):
        setattr(TaintedInt, _name, _binary(_name))
    if hasattr(float, _name):
        setattr(TaintedFloat, _name, _binary(_name))

for _name in _UNARY_METHODS:
    if hasattr(int, _name):
        setattr(TaintedInt, _name, _unary(_name))
    if hasattr(float, _name) and _name != "__invert__":
        setattr(TaintedFloat, _name, _unary(_name))
