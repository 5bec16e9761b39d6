"""A fixed reference computation that measures how fast the core runs.

The benchmark's host is a share of a larger machine whose speed drifts: the
same work takes up to twice as long for stretches of a fraction of a second
to minutes, whatever the program does (see the README).  Timing this
computation on the benchmark's core, between the requests and between the
steps of the set-up, tells how fast the core ran meanwhile, and the
benchmark reports its times at the reference speed: each time is scaled by
the reference time over what the probes around it read.

The host slows in two ways that hit code differently: the core itself runs
slower, which slows everything, and the caches the host shares with other
tenants hold less, which slows code that reads memory outside the core's
own cache.  A HotCRP request does both, so the probe has three parts:
integer arithmetic in a loop, object creation and string work (the two
stay in the core's cache), and reads at random places in a buffer eight
times the core's 2 MiB cache.  The number of reads was chosen on the
benchmark's host: of 0 to 1250, 300 left the least run-to-run spread in
request latency in two sets of 30 runs made an hour apart (see the README).
The parts use only the interpreter and builtins and none of the code under
test, so a change to the program cannot move them.
"""

from __future__ import annotations

import functools
import random
import time
from typing import List, Tuple

#: Time of :func:`probe_ns` at the reference speed: the fastest twentieth of
#: its readings between requests on the host the committed baseline was
#: recorded on.  Only the ratio of a probe to this constant enters a metric.
REFERENCE_NS = 250_000

#: The same for :func:`core_probe_ns`, read between set-up steps.
CORE_REFERENCE_NS = 240_000

MEMORY_BYTES = 16 << 20
MEMORY_READS = 300

_WORDS = "data flow assertion policy filter channel export paper review".split()


class _Row:
    __slots__ = ("key", "name", "tags")

    def __init__(self, key: int, name: str, tags: dict):
        self.key = key
        self.name = name
        self.tags = tags


def _arithmetic() -> int:
    total = 0
    for i in range(1500):
        total += i * i % 7
    return total


def _objects() -> int:
    rows = [
        _Row(i, f"user{i}", {w: j for j, w in enumerate(_WORDS[i % 3 :])})
        for i in range(30)
    ]
    cells = []
    for row in rows:
        tags = ",".join(sorted(row.tags, key=row.tags.get))
        cells.append("<td>{}</td><td>{}</td><td>{}</td>".format(row.key, row.name, tags))
    page = "<tr>".join(cells)
    total = 0
    for part in page.split("<td>"):
        head, _, _ = part.partition("<")
        if head.startswith("user"):
            total += len(head)
    return total


@functools.lru_cache(maxsize=None)
def _memory() -> Tuple[bytes, List[int]]:
    """The buffer the memory part reads and where, made on first use: the
    server times its set-up with :func:`core_probe_ns` only, so that the
    buffer never counts in the server's memory."""
    rng = random.Random(0)
    offsets = [rng.randrange(MEMORY_BYTES) for _ in range(MEMORY_READS)]
    # Every page written, so every read reaches real memory.
    return bytes(range(256)) * (MEMORY_BYTES // 256), offsets


def _read(buffer: bytes, offsets: List[int]) -> int:
    total = 0
    for offset in offsets:
        total += buffer[offset]
    return total


def core_probe_ns() -> int:
    """Wall time of the two in-cache parts now, in nanoseconds."""
    start = time.perf_counter_ns()
    _arithmetic()
    _objects()
    return time.perf_counter_ns() - start


def probe_ns() -> int:
    """Wall time of the whole reference computation now, in nanoseconds."""
    buffer, offsets = _memory()
    start = time.perf_counter_ns()
    _arithmetic()
    _objects()
    _read(buffer, offsets)
    return time.perf_counter_ns() - start


class ScaledClock:
    """Elapsed time at the reference speed of :func:`core_probe_ns`, for
    work that can stop between steps: each stretch between two :meth:`tick`
    calls counts its wall time times ``CORE_REFERENCE_NS`` over the mean of
    the probes at its two ends.  The probes' own time is left out."""

    def __init__(self):
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self._probe = core_probe_ns()
        self._start = time.perf_counter()

    def tick(self) -> None:
        took = time.perf_counter() - self._start
        probe = core_probe_ns()
        self.wall_s += took
        self.scaled_s += took * 2 * CORE_REFERENCE_NS / (self._probe + probe)
        self._probe = probe
        self._start = time.perf_counter()
