"""Data tracking: tainted value types and character-range policy maps."""

from .merge import clear_merge_cache, merge_cache_info, merge_many, merge_policysets
from .propagation import (
    concat,
    interpolate,
    merge_values,
    policies_of,
    spread_policies,
    strip_policies,
    to_tainted_str,
)
from .ranges import PolicyRange, RangeMap
from .tainted_bytes import TaintedBytes, taint_bytes
from .tainted_number import TaintedFloat, TaintedInt, taint_float, taint_int
from .tainted_str import TaintedStr, taint_str

__all__ = [
    "PolicyRange",
    "RangeMap",
    "TaintedStr",
    "TaintedBytes",
    "TaintedInt",
    "TaintedFloat",
    "taint_str",
    "taint_bytes",
    "taint_int",
    "taint_float",
    "merge_policysets",
    "merge_many",
    "merge_cache_info",
    "clear_merge_cache",
    "policies_of",
    "to_tainted_str",
    "concat",
    "interpolate",
    "merge_values",
    "spread_policies",
    "strip_policies",
]
