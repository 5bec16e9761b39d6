"""Byte-level policy tracking.

File and socket data is tracked at byte granularity (Section 3.4.1): a file's
policy map covers byte ranges, just as a string's covers character ranges.
:class:`TaintedBytes` mirrors :class:`~repro.tracking.tainted_str.TaintedStr`
for the operations the channels and filesystem substrates need; the policy
accessors are the ones both share.
"""

from __future__ import annotations

import codecs
from typing import List, Optional

from ..core.policyset import PolicySet, as_policyset
from .ranges import PolicyRange, RangeMap
from .tainted_str import TaintedStr, _TaintedSequence

__all__ = ["TaintedBytes", "taint_bytes", "rangemap_of_bytes"]


def rangemap_of_bytes(value) -> RangeMap:
    if isinstance(value, TaintedBytes):
        return value.rangemap
    if isinstance(value, (bytes, bytearray)):
        return RangeMap.empty(len(value))
    raise TypeError(f"expected bytes, got {type(value).__name__}")


def taint_bytes(
    value: bytes, policies=None, rangemap: Optional[RangeMap] = None
) -> "TaintedBytes":
    if rangemap is None:
        rangemap = rangemap_of_bytes(value)
        for policy in as_policyset(policies):
            rangemap = rangemap.add_policy(policy)
    return TaintedBytes(value, rangemap)


class TaintedBytes(_TaintedSequence, bytes):
    """A bytes object carrying per-byte policy sets."""

    _plain_type = bytes

    def __new__(cls, value: bytes = b"", rangemap: Optional[RangeMap] = None):
        self = super().__new__(cls, value)
        if rangemap is None:
            if isinstance(value, TaintedBytes):
                rangemap = value.rangemap
            else:
                rangemap = RangeMap.empty(len(self))
        if rangemap.length != len(self):
            raise ValueError("rangemap length does not match bytes length")
        self._rangemap = rangemap
        return self

    # -- operations ---------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (bytes, bytearray)):
            return NotImplemented
        raw = bytes.__add__(self, bytes(other))
        return TaintedBytes(raw, self._rangemap.concat(rangemap_of_bytes(other)))

    def __radd__(self, other):
        if not isinstance(other, (bytes, bytearray)):
            return NotImplemented
        raw = bytes(other) + bytes(self)
        return TaintedBytes(raw, rangemap_of_bytes(other).concat(self._rangemap))

    def __mul__(self, count):
        if not isinstance(count, int):
            return NotImplemented
        return TaintedBytes(bytes.__mul__(self, count), self._rangemap.repeat(count))

    __rmul__ = __mul__

    def __getitem__(self, key):
        raw = bytes.__getitem__(self, key)
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            return TaintedBytes(raw, self._rangemap.slice(start, stop, step))
        return raw  # single index returns an int, which carries no policy

    def slice_with_policies(self, start: int, stop: int) -> "TaintedBytes":
        """Explicit tainted slice (``b[i:j]`` already preserves policies;
        this spelling reads better in filter code)."""
        return self[start:stop]

    def decode(self, encoding: str = "utf-8", errors: str = "strict"):
        text = bytes.decode(self, encoding, errors)
        if self._rangemap.is_empty():
            return TaintedStr(text)
        # Feed the bytes to an incremental decoder one at a time.  Each piece
        # it yields takes the union of the policies of the bytes it consumed
        # since the previous piece, less the bytes it still holds (a lead
        # byte that ended an invalid sequence starts the next piece), so a
        # character never carries fewer policies than its bytes, whatever a
        # replaced or ignored byte did.
        decoder = codecs.getincrementaldecoder(encoding)(errors)
        decode, held = decoder.decode, decoder.getstate
        empty = PolicySet.empty()
        byte_policies = [empty] * len(self)
        for rng in self._rangemap.ranges:
            byte_policies[rng.start : rng.stop] = [rng.policies] * len(rng)
        raw = bytes(self)
        last = len(raw) - 1
        segments: List[PolicyRange] = []
        start = char_index = 0
        for index in range(len(raw)):
            piece = decode(raw[index : index + 1], final=index == last)
            if piece:
                stop = index + 1 - len(held()[0])
                policies = empty
                for byte in byte_policies[start:stop]:
                    policies = policies.union(byte)
                if policies:
                    end = char_index + len(piece)
                    segments.append(PolicyRange(char_index, end, policies))
                char_index += len(piece)
                start = stop
        return TaintedStr(text, RangeMap(len(text), segments))

    def join(self, iterable):
        items = [
            item if isinstance(item, TaintedBytes) else TaintedBytes(item)
            for item in iterable
        ]
        raw = bytes(self).join(bytes(item) for item in items)
        pieces: List[RangeMap] = []
        for index, item in enumerate(items):
            if index:
                pieces.append(self._rangemap)
            pieces.append(item.rangemap)
        return TaintedBytes(raw, RangeMap.concat_many(pieces))

    def split(self, sep=None, maxsplit: int = -1):
        parts = bytes.split(self, sep, maxsplit)
        located = []
        cursor = 0
        for part in parts:
            found = bytes.find(self, part, cursor) if part else cursor
            located.append(self[found : found + len(part)])
            cursor = found + len(part)
        return located
