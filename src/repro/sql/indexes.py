"""Secondary indexes for the SQL engine.

An index is a **candidate generator**, not an oracle: ``lookup_eq`` /
``lookup_range`` return a sorted superset of the row positions that can
satisfy the predicate, and the executor always re-checks the full WHERE
clause against each candidate row.  That split keeps the correctness
argument local — the only property an index must uphold is *completeness*
(no false negatives); false positives cost a predicate re-evaluation and
nothing else.  Completeness is subtle because the engine's comparison
semantics (:func:`repro.sql.executor.coerce_pair`) are not transitive:

* numeric cell vs numeric probe compares exactly (``2 == 2.0``);
* numeric vs string tries ``float`` on both, falling back to ``str`` on
  both when the string does not parse;
* string vs string always compares as strings (``"1" != "1.0"``).

So one column value participates in up to three key families, by *origin*:

``_eq_num`` / ``_ord_num``
    numeric cells keyed by ``float(value)`` (non-NaN);
``_eq_numstr`` / ``_ord_numstr``
    string cells that parse as a float, keyed by that float — matched only
    by *numeric* probes (a string probe compares to them as a string);
``_eq_str`` / ``_ord_str``
    every string cell keyed by its exact text;
``_ord_numlex``
    numeric cells keyed by ``str(value)`` — the lexicographic fallback an
    *unparseable string* bound compares them under.

NULL cells are indexed nowhere (they match no predicate), NaN keys are
excluded from the float families (NaN compares false to everything), and
integers too large for ``float`` are clamped to ``±inf`` — the clamp is
monotone, so inclusive candidate ranges stay supersets and the executor's
exact re-check trims the boundary.

Maintenance runs inside the owning table's lock scope: inserts append
incrementally (positions only grow), UPDATE rebuilds the indexes whose
column was assigned, DELETE compacts row positions and rebuilds everything
on the table — the same O(n) as the delete itself.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence

from ..core.exceptions import SQLError

__all__ = ["SecondaryIndex", "INDEX_KINDS", "UNBOUNDED"]

#: Supported index kinds: ``hash`` answers equality probes only, ``sorted``
#: answers equality and range probes.
INDEX_KINDS = ("hash", "sorted")

_UNBOUNDED = object()


def _float_key(value: Any) -> Optional[float]:
    """``float(value)`` for keying, ``None`` when the value can never match
    a float comparison (NaN), ``±inf`` for out-of-range integers."""
    try:
        key = float(value)
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")
    if key != key:  # NaN
        return None
    return key


def _parse_float(text: str) -> Optional[float]:
    """The float a string coerces to under ``coerce_pair``, or ``None``
    when it does not parse (or parses to NaN, which matches nothing)."""
    try:
        key = float(text)
    except (TypeError, ValueError):
        return None
    if key != key:
        return None
    return key


class SecondaryIndex:
    """One secondary index over a single column of one table."""

    __slots__ = (
        "name",
        "table",
        "column",
        "kind",
        "_eq_num",
        "_eq_numstr",
        "_eq_str",
        "_ord_num",
        "_ord_numstr",
        "_ord_str",
        "_ord_numlex",
    )

    def __init__(self, name: str, table: str, column: str, kind: str = "sorted"):
        if kind not in INDEX_KINDS:
            raise SQLError(f"unknown index kind {kind!r} (use 'hash' or 'sorted')")
        self.name = str(name)
        self.table = str(table)
        self.column = str(column)
        self.kind = kind
        self._eq_num: Dict[float, List[int]] = {}
        self._eq_numstr: Dict[float, List[int]] = {}
        self._eq_str: Dict[str, List[int]] = {}
        # Sorted (key, position) pairs; only maintained for kind="sorted".
        self._ord_num: List[tuple] = []
        self._ord_numstr: List[tuple] = []
        self._ord_str: List[tuple] = []
        self._ord_numlex: List[tuple] = []

    def __repr__(self) -> str:
        return (
            f"SecondaryIndex({self.name!r}, {self.table}.{self.column}, "
            f"{self.kind})"
        )

    # -- maintenance ----------------------------------------------------------

    def rebuild(self, rows: Sequence[Dict[str, Any]]) -> None:
        """Rebuild from scratch over ``rows`` (list order = row position)."""
        self._eq_num = {}
        self._eq_numstr = {}
        self._eq_str = {}
        self._ord_num = []
        self._ord_numstr = []
        self._ord_str = []
        self._ord_numlex = []
        column = self.column
        for position, row in enumerate(rows):
            self._add(position, row.get(column))
        if self.kind == "sorted":
            self._ord_num.sort()
            self._ord_numstr.sort()
            self._ord_str.sort()
            self._ord_numlex.sort()

    def add_row(self, position: int, row: Dict[str, Any]) -> None:
        """Incremental insert (positions only ever grow on INSERT)."""
        self._add(position, row.get(self.column), incremental=True)

    def _add(self, position: int, value: Any, incremental: bool = False) -> None:
        if value is None:
            return
        sorted_kind = self.kind == "sorted"

        def _ord(array: List[tuple], key) -> None:
            if not sorted_kind:
                return
            if incremental:
                bisect.insort(array, (key, position))
            else:
                array.append((key, position))

        if isinstance(value, (int, float)):
            key = _float_key(value)
            if key is not None:
                self._eq_num.setdefault(key, []).append(position)
                _ord(self._ord_num, key)
            _ord(self._ord_numlex, str(value))
        else:
            text = str(value)
            self._eq_str.setdefault(text, []).append(position)
            _ord(self._ord_str, text)
            key = _parse_float(text)
            if key is not None:
                self._eq_numstr.setdefault(key, []).append(position)
                _ord(self._ord_numstr, key)

    # -- lookups --------------------------------------------------------------

    def lookup_eq(self, probes: Sequence[Any]) -> List[int]:
        """Sorted candidate positions for ``column = probe`` (any probe)."""
        candidates: set = set()
        for probe in probes:
            if probe is None:
                continue
            if isinstance(probe, (int, float)):
                key = _float_key(probe)
                if key is None:
                    continue
                candidates.update(self._eq_num.get(key, ()))
                candidates.update(self._eq_numstr.get(key, ()))
            else:
                text = str(probe)
                candidates.update(self._eq_str.get(text, ()))
                key = _parse_float(text)
                if key is not None:
                    candidates.update(self._eq_num.get(key, ()))
        return sorted(candidates)

    def lookup_range(self, lo: Any = _UNBOUNDED, hi: Any = _UNBOUNDED) -> List[int]:
        """Sorted candidate positions for ``lo <= column <= hi`` (inclusive
        on both ends — the executor's re-check applies the real operators).

        Pass :data:`UNBOUNDED` (the default) to leave a side open.  A bound
        of ``None`` (SQL NULL) makes the predicate universally false."""
        if self.kind != "sorted":
            raise SQLError(
                f"index {self.name} is a hash index; range scans need a sorted index"
            )
        if lo is None or hi is None:
            return []
        if lo is _UNBOUNDED and hi is _UNBOUNDED:
            return sorted(
                position
                for family in (self._ord_num, self._ord_str)
                for _, position in family
            )
        if lo is not _UNBOUNDED and hi is not _UNBOUNDED:
            low = self._bound_candidates(lo, "lo")
            return sorted(low & self._bound_candidates(hi, "hi"))
        if lo is not _UNBOUNDED:
            return sorted(self._bound_candidates(lo, "lo"))
        return sorted(self._bound_candidates(hi, "hi"))

    def _bound_candidates(self, bound: Any, side: str) -> set:
        """Positions that can satisfy a one-sided inclusive bound."""
        candidates: set = set()
        if isinstance(bound, (int, float)):
            key = _float_key(bound)
            if key is not None:
                # Numeric cells and parseable-string cells compare as floats.
                candidates.update(self._slice(self._ord_num, key, side))
                candidates.update(self._slice(self._ord_numstr, key, side))
            # Unparseable string cells fall back to a lexicographic
            # comparison against str(bound); over-covering the parseable
            # strings here is harmless.
            candidates.update(self._slice(self._ord_str, str(bound), side))
        else:
            text = str(bound)
            candidates.update(self._slice(self._ord_str, text, side))
            key = _parse_float(text)
            if key is not None:
                # Numeric cells compare as floats to a parseable string.
                candidates.update(self._slice(self._ord_num, key, side))
            else:
                # ... and lexicographically (via str(cell)) otherwise.
                candidates.update(self._slice(self._ord_numlex, text, side))
        return candidates

    @staticmethod
    def _slice(array: List[tuple], key, side: str):
        if side == "lo":
            start = bisect.bisect_left(array, (key, -1))
            selected = array[start:]
        else:
            stop = bisect.bisect_right(array, (key, float("inf")))
            selected = array[:stop]
        return (position for _, position in selected)


#: Sentinel for an open side of :meth:`SecondaryIndex.lookup_range`.
UNBOUNDED = _UNBOUNDED
