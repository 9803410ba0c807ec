"""A reference clock for a noisy shared box.

Measured while sizing the ladder (README.md, "Steadiness"): neighbours slow
memory-heavy Python on this kind of VM down by 30-60 % for seconds to
minutes at a time, and leave a tight arithmetic loop untouched.  No in-run
statistic of wall seconds survives a slow phase that outlasts the run, so
timed calls are reported in *reference seconds*: wall seconds divided by
how much slower than nominal a fixed reference load ran just before and
just after the call.  On a quiet box the two clocks agree.

The reference load walks a persistent table in shuffled order — fresh key
tuples, dict lookups, pointer chasing through lists, tuples and dicts, a
short-lived container per step: the memory behaviour of the program's own
hot paths.  The table is built once, before the program is imported, and
frozen out of the cyclic collector; the load frees nothing back to the
operating system, so it takes no page faults, and it lives outside
``src/``, so no change to the program can move it.
"""

from __future__ import annotations

import gc
import random
import resource
import time
from typing import List

__all__ = ["NOMINAL_S", "ReferenceClock", "peak_rss_mb"]

#: Wall seconds one reference load takes between repeats of the workloads
#: (caches cold) on the box the ladder was sized on with no neighbour
#: active; fixes the scale so that reference seconds read as wall seconds
#: there.
NOMINAL_S = 0.068

_ENTRIES = 40_000


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class ReferenceClock:
    """Times calls in reference seconds; build it before importing the
    program, so that only its own table (and the interpreter's start-up
    objects) are frozen."""

    def __init__(self) -> None:
        before = peak_rss_mb()
        self._table = {
            (i * 7919 % 1_000_003, i % 13): [i, (i, str(i)), {"k": i}]
            for i in range(_ENTRIES)
        }
        self._keys = list(self._table)
        random.Random(7).shuffle(self._keys)
        gc.collect()
        gc.freeze()
        #: Resident memory the table holds, so ``peak_rss_mb`` can be
        #: reported net of it (the process peak only ever grew so far).
        self.footprint_mb = peak_rss_mb() - before
        #: Every reference load measured, in order.
        self.references: List[float] = []
        self._last = self.measure()

    def measure(self) -> float:
        """Wall seconds of one reference load."""
        table = self._table
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            total = 0
            for _ in range(2):
                for a, b in self._keys:
                    row = table[(a, b)]
                    total += row[0] + row[1][0] + row[2]["k"]
                    _pair = (total, row)
            elapsed = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.references.append(elapsed)
        return elapsed

    def timed(self, fn, *args):
        """``(reference seconds, wall seconds, result)`` of one call,
        garbage collected first."""
        gc.collect()
        before = self._last
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        self._last = self.measure()
        slowdown = (before + self._last) / 2 / NOMINAL_S
        return wall / slowdown, wall, result
