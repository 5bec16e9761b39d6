"""Character-level policy tracking for strings.

The paper's prototypes attach a policy-set pointer to the interpreter's
internal string representation and patch every opcode and C library routine
that copies characters.  We cannot patch CPython, so — following the paper's
own suggestion in Section 8 — :class:`TaintedStr` subclasses :class:`str` and
overrides every operation that produces a new string, re-computing the
character-range policy map (:class:`~repro.tracking.ranges.RangeMap`) of the
result.

Semantics (Section 3.4):

* concatenation keeps each operand's policies on its own characters;
* slicing keeps exactly the policies of the selected characters;
* interpolation (``format`` / ``%``) keeps the policies of interpolated
  values on the interpolated characters only;
* transformations whose per-character mapping is unknown fall back to
  spreading the union of all operand policies over the whole result (the
  conservative choice).

``TaintedStr`` compares and hashes exactly like the underlying ``str`` —
policies never affect program logic, only boundary checks.

Hot-path note: concatenation, slicing, and ``join`` build *lazy* range maps
(rope nodes over the operands' maps, see :mod:`repro.tracking.ranges`), so a
render loop that assembles a page out of thousands of pieces pays for policy
bookkeeping only when something finally inspects the result — typically once,
at the channel boundary.
"""

from __future__ import annotations

import re
import string as _string_module
from typing import Iterable, Iterator, List, Optional

from ..core.policy import Policy
from ..core.policyset import PolicySet, as_policyset
from .ranges import PolicyRange, RangeMap

__all__ = ["TaintedStr", "taint_str", "rangemap_of", "policies_of_str"]


_PERCENT_SPEC = re.compile(
    r"%(?:\((?P<name>[^)]*)\))?"  # optional mapping key
    r"[-+ #0]*"  # flags
    r"(?:\*|\d+)?"  # width
    r"(?:\.(?:\*|\d+))?"  # precision
    r"[hlL]?"  # length (ignored)
    r"(?P<conv>[diouxXeEfFgGcrsa%])"
)


def rangemap_of(value) -> RangeMap:
    """Return the policy range map of ``value`` (empty for plain strings)."""
    if isinstance(value, TaintedStr):
        return value.rangemap
    if isinstance(value, str):
        return RangeMap.empty(len(value))
    raise TypeError(f"expected str, got {type(value).__name__}")


def policies_of_str(value) -> PolicySet:
    """Union of all policies carried by ``value``."""
    if isinstance(value, TaintedStr):
        return value.policies()
    return PolicySet.empty()


def taint_str(
    value: str, policies=None, rangemap: Optional[RangeMap] = None
) -> "TaintedStr":
    """Wrap ``value`` in a :class:`TaintedStr`.

    ``policies`` (a policy, an iterable of policies, or None) is applied to
    every character; alternatively an explicit ``rangemap`` may be given.
    """
    if rangemap is None:
        if isinstance(value, TaintedStr):
            rangemap = value.rangemap
        else:
            rangemap = RangeMap.empty(len(value))
        for policy in as_policyset(policies):
            rangemap = rangemap.add_policy(policy)
    return TaintedStr(value, rangemap)


class TaintedStr(str):
    """A string carrying per-character policy sets."""

    def __new__(cls, value: str = "", rangemap: Optional[RangeMap] = None):
        self = super().__new__(cls, value)
        if rangemap is None:
            if isinstance(value, TaintedStr):
                rangemap = value.rangemap
            else:
                rangemap = RangeMap.empty(len(self))
        if rangemap.length != len(self):
            raise ValueError(
                f"rangemap length {rangemap.length} does not match string "
                f"length {len(self)}"
            )
        self._rangemap = rangemap
        return self

    # -- policy access -------------------------------------------------------

    @property
    def rangemap(self) -> RangeMap:
        return self._rangemap

    def policies(self) -> PolicySet:
        """Union of the policies of every character."""
        return self._rangemap.all_policies()

    def policies_at(self, index: int) -> PolicySet:
        """Policy set of the character at ``index``."""
        return self._rangemap.policies_at(index)

    def has_policy_type(self, policy_type, *, every_char: bool = False) -> bool:
        """True if some character (or every character, with
        ``every_char=True``) carries a policy of ``policy_type``."""
        if every_char:
            return self._rangemap.every_position_has(policy_type)
        return self._rangemap.all_policies().has_type(policy_type)

    def with_policy(
        self, policy: Policy, start: int = 0, stop: Optional[int] = None
    ) -> "TaintedStr":
        """Return a copy with ``policy`` attached to characters
        ``[start, stop)`` (the whole string by default)."""
        return TaintedStr(str(self), self._rangemap.add_policy(policy, start, stop))

    def without_policy(self, policy: Policy) -> "TaintedStr":
        """Return a copy with ``policy`` removed from every character."""
        return TaintedStr(str(self), self._rangemap.remove_policy(policy))

    def without_policy_type(self, policy_type) -> "TaintedStr":
        """Return a copy with every policy of ``policy_type`` removed."""
        return TaintedStr(str(self), self._rangemap.remove_policy_type(policy_type))

    def plain(self) -> str:
        """The underlying plain string (policies dropped)."""
        return str.__str__(self)

    # -- internal helpers ------------------------------------------------------

    def _wrap(self, text: str, rangemap: RangeMap) -> "TaintedStr":
        # Deliberately does not inspect the map: peeking (even is_empty())
        # could force a lazy rope node and defeat O(1) concat/slice.
        return TaintedStr(text, rangemap)

    def _spread(self, text: str, extra: PolicySet = None) -> "TaintedStr":
        policies = self.policies()
        if extra:
            policies = policies.union(extra)
        return TaintedStr(text, RangeMap.uniform(len(text), policies))

    # -- concatenation / repetition -------------------------------------------

    def __add__(self, other):
        if not isinstance(other, str):
            return NotImplemented
        text = str.__add__(self, other)
        return self._wrap(text, self._rangemap.concat(rangemap_of(other)))

    def __radd__(self, other):
        if not isinstance(other, str):
            return NotImplemented
        text = str.__add__(other, self)
        return self._wrap(text, rangemap_of(other).concat(self._rangemap))

    def __mul__(self, count):
        if not isinstance(count, int):
            return NotImplemented
        text = str.__mul__(self, count)
        return self._wrap(text, self._rangemap.repeat(count))

    __rmul__ = __mul__

    # -- indexing / slicing ------------------------------------------------------

    def __getitem__(self, key):
        text = str.__getitem__(self, key)
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            return self._wrap(text, self._rangemap.slice(start, stop, step))
        index = key if key >= 0 else key + len(self)
        pset = self._rangemap.policies_at(index)
        return self._wrap(text, RangeMap.uniform(1, pset))

    def __iter__(self) -> Iterator["TaintedStr"]:
        for index in range(len(self)):
            yield self[index]

    # -- case / whitespace transformations (length-preserving when possible) -----

    def _length_preserving(self, text: str) -> "TaintedStr":
        if len(text) == len(self):
            return self._wrap(text, self._rangemap)
        return self._spread(text)

    def upper(self):
        return self._length_preserving(str.upper(self))

    def lower(self):
        return self._length_preserving(str.lower(self))

    def casefold(self):
        return self._length_preserving(str.casefold(self))

    def swapcase(self):
        return self._length_preserving(str.swapcase(self))

    def title(self):
        return self._length_preserving(str.title(self))

    def capitalize(self):
        return self._length_preserving(str.capitalize(self))

    def expandtabs(self, tabsize: int = 8):
        return self._spread(str.expandtabs(self, tabsize))

    def strip(self, chars=None):
        return self._strip_common(str.strip(self, chars), str.lstrip(self, chars))

    def lstrip(self, chars=None):
        stripped = str.lstrip(self, chars)
        start = len(self) - len(stripped)
        return self._wrap(stripped, self._rangemap.slice(start, len(self)))

    def rstrip(self, chars=None):
        stripped = str.rstrip(self, chars)
        return self._wrap(stripped, self._rangemap.slice(0, len(stripped)))

    def removeprefix(self, prefix):
        if str.startswith(self, prefix):
            return self[len(prefix) :]
        return self[:]

    def removesuffix(self, suffix):
        if suffix and str.endswith(self, suffix):
            return self[: len(self) - len(suffix)]
        return self[:]

    def _strip_common(self, stripped: str, lstripped: str) -> "TaintedStr":
        start = len(self) - len(lstripped)
        return self._wrap(stripped, self._rangemap.slice(start, start + len(stripped)))

    def ljust(self, width, fillchar=" "):
        pad = max(0, width - len(self))
        return self + type(self)(fillchar * pad)

    def rjust(self, width, fillchar=" "):
        pad = max(0, width - len(self))
        return type(self)(fillchar * pad) + self

    def center(self, width, fillchar=" "):
        text = str.center(self, width, fillchar)
        pad = len(text) - len(self)
        if pad <= 0:
            return self[:]
        # Matches CPython: the extra fill character of an odd margin goes to
        # the left when the target width is odd, to the right otherwise.
        left = pad // 2 + (pad & width & 1)
        prefix = RangeMap.empty(left)
        suffix = RangeMap.empty(pad - left)
        return self._wrap(text, prefix.concat(self._rangemap).concat(suffix))

    def zfill(self, width):
        text = str.zfill(self, width)
        pad = len(text) - len(self)
        if pad <= 0:
            return self[:]
        if self and self[0] in "+-":
            # sign stays first; zeros are inserted after it
            rmap = (
                self._rangemap.slice(0, 1)
                .concat(RangeMap.empty(pad))
                .concat(self._rangemap.slice(1, len(self)))
            )
        else:
            rmap = RangeMap.empty(pad).concat(self._rangemap)
        return self._wrap(text, rmap)

    # -- search-and-rebuild operations ---------------------------------------------

    def replace(self, old, new, count: int = -1):
        if old == "":
            # Matches CPython semantics: new is inserted between every char.
            pieces: List[TaintedStr] = []
            limit = count if count >= 0 else len(self) + 1
            new_t = _as_tainted(new)
            for index, char in enumerate(self):
                if index < limit:
                    pieces.append(new_t)
                pieces.append(char)
            if len(self) < limit:
                pieces.append(new_t)
            return _concat_all(pieces)
        result: List[TaintedStr] = []
        remaining = count if count >= 0 else -1
        cursor = 0
        new_t = _as_tainted(new)
        while True:
            if remaining == 0:
                break
            found = str.find(self, old, cursor)
            if found < 0:
                break
            result.append(self[cursor:found])
            result.append(new_t)
            cursor = found + len(old)
            if remaining > 0:
                remaining -= 1
        result.append(self[cursor:])
        return _concat_all(result)

    def split(self, sep=None, maxsplit: int = -1):
        return self._locate_parts(str.split(self, sep, maxsplit))

    def rsplit(self, sep=None, maxsplit: int = -1):
        return self._locate_parts(str.rsplit(self, sep, maxsplit), from_right=True)

    def splitlines(self, keepends: bool = False):
        return self._locate_parts(str.splitlines(self, keepends))

    def partition(self, sep):
        index = str.find(self, sep)
        if index < 0:
            return (self[:], type(self)(""), type(self)(""))
        return (self[:index], self[index : index + len(sep)], self[index + len(sep) :])

    def rpartition(self, sep):
        index = str.rfind(self, sep)
        if index < 0:
            return (type(self)(""), type(self)(""), self[:])
        return (self[:index], self[index : index + len(sep)], self[index + len(sep) :])

    def _locate_parts(
        self, parts: List[str], from_right: bool = False
    ) -> List["TaintedStr"]:
        """Map each plain-string part back to its position in ``self`` and
        return the corresponding tainted slices.  Parts are guaranteed to
        occur in order (both split directions yield in-order parts)."""
        located: List[TaintedStr] = []
        cursor = 0
        for part in parts:
            found = str.find(self, part, cursor) if part else cursor
            if found < 0:  # pragma: no cover - defensive, should not happen
                located.append(self._spread(part))
                continue
            located.append(self[found : found + len(part)])
            cursor = found + len(part)
        return located

    def join(self, iterable):
        items = [_as_tainted(item) for item in iterable]
        if not items:
            return type(self)("")
        pieces: List[TaintedStr] = []
        for index, item in enumerate(items):
            if index:
                pieces.append(self)
            pieces.append(item)
        return _concat_all(pieces)

    # -- interpolation -------------------------------------------------------------

    def format(self, *args, **kwargs):
        formatter = _string_module.Formatter()
        pieces: List[TaintedStr] = []
        auto_index = 0
        for literal, field, spec, conversion in formatter.parse(str(self)):
            if literal:
                pieces.append(self._spread_literal(literal))
            if field is None:
                continue
            if field == "":
                field = str(auto_index)
                auto_index += 1
            obj, _ = formatter.get_field(field, args, kwargs)
            if conversion:
                obj = formatter.convert_field(obj, conversion)
            pieces.append(_format_value(obj, spec or ""))
        return _concat_all(pieces) if pieces else type(self)("")

    def format_map(self, mapping):
        return self.format(**dict(mapping))

    def __mod__(self, args):
        if isinstance(args, dict) and not isinstance(args, tuple):
            return self._percent_interpolate(args, mapping=True)
        if not isinstance(args, tuple):
            args = (args,)
        return self._percent_interpolate(args, mapping=False)

    def _percent_interpolate(self, args, mapping: bool):
        pieces: List[TaintedStr] = []
        cursor = 0
        arg_index = 0
        text = str(self)
        for match in _PERCENT_SPEC.finditer(text):
            literal = self[cursor : match.start()]
            if literal:
                pieces.append(literal)
            conv = match.group("conv")
            if conv == "%":
                pieces.append(TaintedStr("%"))
            else:
                spec = match.group(0)
                if mapping:
                    value = args[match.group("name")]
                    formatted = str.__mod__(
                        spec.replace(f"({match.group('name')})", "", 1), (value,)
                    )
                else:
                    value = args[arg_index]
                    arg_index += 1
                    formatted = str.__mod__(spec, (value,))
                if isinstance(value, str) and conv == "s" and formatted == str(value):
                    pieces.append(_as_tainted(value))
                else:
                    pieces.append(
                        TaintedStr(
                            formatted,
                            RangeMap.uniform(len(formatted), policies_of_value(value)),
                        )
                    )
            cursor = match.end()
        tail = self[cursor:]
        if tail:
            pieces.append(tail)
        return _concat_all(pieces) if pieces else type(self)("")

    def _spread_literal(self, literal: str) -> "TaintedStr":
        # Literal text of a format string carries the template's own policies
        # (usually none): templates are typically programmer-authored.
        return TaintedStr(
            literal, RangeMap.uniform(len(literal), self._rangemap.all_policies())
        )

    # -- conversions -----------------------------------------------------------------

    def encode(self, encoding: str = "utf-8", errors: str = "strict"):
        from .tainted_bytes import TaintedBytes

        raw = str.encode(self, encoding, errors)
        if self._rangemap.is_empty():
            return TaintedBytes(raw)
        ranges = self._rangemap.ranges
        if len(ranges) == 1 and ranges[0].start == 0 and ranges[0].stop == len(self):
            # Fast path: a uniform policy over the whole string maps to a
            # uniform policy over all of its bytes, whatever the encoding.
            return TaintedBytes(raw, RangeMap.uniform(len(raw), ranges[0].policies))
        # Encode per range segment: byte offsets are only needed at segment
        # boundaries, so each policy-free gap and each tainted segment is one
        # chunk — not one chunk per character.
        segments = []
        byte_start = 0
        cursor = 0
        text = str.__str__(self)
        for rng in ranges:
            if rng.start > cursor:
                gap = str.encode(text[cursor : rng.start], encoding, errors)
                byte_start += len(gap)
            seg_len = len(str.encode(text[rng.start : rng.stop], encoding, errors))
            segments.append(PolicyRange(byte_start, byte_start + seg_len, rng.policies))
            byte_start += seg_len
            cursor = rng.stop
        return TaintedBytes(raw, RangeMap(len(raw), segments))

    def __format__(self, spec):
        # Formatting through f-strings loses policies (the interpreter joins
        # the pieces as plain str).  The text stays correct, but a non-empty
        # policy set is being discarded — fail loudly: a ResinWarning for
        # the developer, and a ``policy_dropped`` audit event when a
        # recorder is active so the drop is forensically visible.
        result = str.__format__(self, spec)
        if not self._rangemap.is_empty():
            _report_policy_drop(self, spec)
        return result

    def __repr__(self):
        return str.__repr__(self)

    def __reduce__(self):
        # Pickling keeps the text but intentionally drops the policy map:
        # persistence of policies is the job of the storage filters.
        return (str, (str(self),))


def _report_policy_drop(value: "TaintedStr", spec: str) -> None:
    """Make a ``__format__`` policy drop loud: warn, and audit if enabled.

    Best-effort by design — reporting must never change the formatting
    result or raise into the caller.
    """
    import warnings

    from ..core.exceptions import ResinWarning
    from ..core.request_context import current_request

    try:
        from ..audit.recorder import recorder_for

        rctx = current_request()
        recorder = recorder_for(getattr(rctx, "env", None))
        if recorder is not None:
            recorder.record(
                "policy_dropped",
                verdict="allow",
                policies=value.policies(),
                rangemap=value._rangemap,
                detail={"op": "format", "spec": spec},
            )
    except Exception:
        pass
    warnings.warn(
        ResinWarning(
            "formatting a TaintedStr discards its policies (the interpreter "
            "joins f-string pieces as plain str); concatenate with + or "
            "taint the formatted result to keep them"
        ),
        stacklevel=3,
    )


def policies_of_value(value) -> PolicySet:
    """Best-effort policy set of an arbitrary Python value."""
    from .tainted_number import TaintedFloat, TaintedInt
    from .tainted_bytes import TaintedBytes

    if isinstance(value, TaintedStr):
        return value.policies()
    if isinstance(value, TaintedBytes):
        return value.policies()
    if isinstance(value, (TaintedInt, TaintedFloat)):
        return value.policies()
    return PolicySet.empty()


def _as_tainted(value) -> TaintedStr:
    if isinstance(value, TaintedStr):
        return value
    if isinstance(value, str):
        return TaintedStr(value)
    raise TypeError(f"expected str, got {type(value).__name__}")


def _concat_all(pieces: Iterable[str]) -> TaintedStr:
    pieces = list(pieces)
    return TaintedStr("".join(pieces), RangeMap.concat_many(map(rangemap_of, pieces)))


def _format_value(obj, spec: str) -> TaintedStr:
    if isinstance(obj, str):
        # The policies are re-applied to the result below, so nothing is
        # dropped on this path — bypass TaintedStr.__format__ and its
        # policy-drop reporting.
        formatted = str.__format__(obj, spec)
    else:
        formatted = format(obj, spec)
    if isinstance(obj, str) and formatted == str(obj):
        return _as_tainted(obj)
    return TaintedStr(
        formatted, RangeMap.uniform(len(formatted), policies_of_value(obj))
    )
