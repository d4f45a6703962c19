"""Correct host times for the drift of a shared machine.

On a shared VM the same code runs 20-30% slower for tens of seconds at a
time while neighbours are busy, so whole runs land in fast or slow states
and a median over one run cannot remove it. The benchmark therefore runs a
fixed pure-Python reference (16-23 us) after every VFS call, times it,
and reports host time at the reference speed::

    corrected = (wall - reference_time) * (calls * REF_CALL_S / reference_time)

The reference interleaves with the program at a sub-millisecond grain, so
both see the same machine state. It lives here, outside ``src/``, and runs
a fixed number of times per workload, so a change to the program cannot
move it. It allocates nothing the garbage collector tracks.
"""

from __future__ import annotations

import time

__all__ = ["REF_CALL_S", "SpeedGauge"]

#: One reference call's duration in the middle of a run, in a quiet state
#: of the machine the bounds were set on (2-vCPU Linux VM, Python 3.11),
#: so corrected seconds match raw seconds there. Busy states measured
#: 19-23 us.
REF_CALL_S = 16e-6


class SpeedGauge:
    """Times the reference each time :meth:`tick` is called."""

    __slots__ = ("calls", "seconds", "_acc", "_table")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self._acc = 0
        self._table = {}

    def _step(self, i: int) -> int:
        self._acc = (self._acc + i) & 255
        return self._acc

    def tick(self) -> None:
        t0 = time.perf_counter()
        step = self._step
        for i in range(120):
            step(i & 127)
        table = self._table
        for i in range(60):
            table[i & 31] = i
        self.seconds += time.perf_counter() - t0
        self.calls += 1

    @property
    def factor(self) -> float:
        """Reference speed over measured speed."""
        return self.calls * REF_CALL_S / self.seconds
