"""Calibrated seconds: wall time rescaled by a reference loop timed beside it.

The machine this benchmark runs on changes speed from minute to minute
(shared cores, frequency scaling), and CPU time drifts with it, so raw
wall times of the same code differ between two sets of runs by more than
any bound worth setting.  Right before and right after each timed
operation the benchmark times a fixed pure-Python loop that touches no
program state and allocates no object the garbage collector tracks, and
reports the operation as ``wall × NOMINAL_REF_S / reference``, where
``reference`` is the mean of the two loop timings.  The unit stays
seconds: on a machine running the loop in exactly ``NOMINAL_REF_S`` the
calibrated time equals the wall time.

The machine switches between a fast and a slow state (about 1.8 times
slower) for stretches shorter than a second, so only loops timed next to
the operation see the state it ran in.  Medians of the loop timings of
neighbouring operations (5 or 50 on each side) or of the whole run were
tried and spread the 95th percentile of applied keystrokes two to six
times as much between runs; the median of the last 9 read it 7-23% high
(README.md, "Calibrated seconds").
"""

from __future__ import annotations

from time import perf_counter

#: Iterations of the two parts of the reference loop.
ARITH_ITERATIONS = 600
LOOKUP_ITERATIONS = 1200

#: The loop's median time inside runs on the machine the bounds were set
#: on, in its slow state (2-core VM, CPython 3.11); see README.md.
NOMINAL_REF_S = 0.00055

_KEYS = tuple("k{}".format(i) for i in range(64))
_TABLE = {key: i for i, key in enumerate(_KEYS)}


class _Probe:
    __slots__ = ("step",)

    def __init__(self):
        self.step = 3

    def advance(self, value):
        return value + self.step


_PROBE = _Probe()


def reference_seconds():
    """Wall seconds of one run of the reference loop.

    Two parts: integer arithmetic (the interpreter's dispatch) and, with
    the larger weight, dictionary lookups, method calls and string
    building, which is what the program's Python code mostly does.  On
    the machine the bounds were set on, the second part tracked the
    program's speed best; reads scattered over a large block tracked it
    worse and were left out.  The loop allocates only ints and strings,
    which the garbage collector does not track, so it can neither
    trigger a collection nor be slowed by one.
    """
    started = perf_counter()
    x = 0
    for i in range(ARITH_ITERATIONS):
        x = (x * 1103515245 + 12345 + i) & 0xFFFFFFF
    keys, table, probe = _KEYS, _TABLE, _PROBE
    for i in range(LOOKUP_ITERATIONS):
        key = keys[i & 63]
        x = (probe.advance(table[key]) + x + len(key + "ab")) & 0xFFFFF
    return perf_counter() - started


class Meter:
    """Operation times in the order they were taken, with their loop timings."""

    def __init__(self):
        self.kinds = []
        self.walls = []
        self.references = []

    def add(self, kind, wall, before):
        """Record one operation of ``kind`` that took ``wall`` seconds.

        ``before`` is the loop timing taken right before the operation;
        the loop runs again now, right after it.  Returns the operation's
        index.
        """
        self.references.append((before + reference_seconds()) / 2)
        self.kinds.append(kind)
        self.walls.append(wall)
        return len(self.walls) - 1

    def factors(self):
        """Per operation, what turns its wall seconds into calibrated ones."""
        return [NOMINAL_REF_S / reference for reference in self.references]

    def seconds(self, calibrated=True):
        """Every operation's time, calibrated or raw, in order."""
        if not calibrated:
            return list(self.walls)
        return [wall * factor
                for wall, factor in zip(self.walls, self.factors())]

    def samples(self, kinds, calibrated=True):
        """Times of the operations of ``kinds``."""
        return [value for kind, value in zip(self.kinds,
                                             self.seconds(calibrated))
                if kind in kinds]
