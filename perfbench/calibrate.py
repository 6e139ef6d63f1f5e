"""How fast the host runs right now, from a fixed pure-Python probe.

The benchmark's host shares its cores with other machines' work and
changes speed by up to 2x within seconds, for every program alike.  The
:data:`METER` times a short fixed loop (the probe) every ``INTERVAL_S``
from a ``SIGALRM`` handler and at every boundary it is asked for, so the
wall time between two boundaries can be scaled to the speed at which
the probe takes ``REF_S``.  The probes' own time is left out of it.
The probe resumes a generator and does integer, dict and attribute
work, like the simulator's engine, and shares no code with the program.
"""

import signal
import time
from typing import List, Tuple

#: seconds the probe takes at the reference speed: its typical time on
#: the 2-vCPU x86-64 VM the benchmark was tuned on, under CPython 3.11
REF_S = 0.00075
#: host seconds between two timed probes
INTERVAL_S = 0.02


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def _ticks(n: int):
    for i in range(n):
        yield i


def probe() -> None:
    cell = _Cell()
    table = {}
    for i in _ticks(2000):
        cell.value = (cell.value + i * i) % 1000003
        key = i & 255
        table[key] = table.get(key, 0) + cell.value


class Speedometer:
    def __init__(self) -> None:
        #: (perf_counter at its start, seconds) of every probe, in order
        self.probes: List[Tuple[float, float]] = []

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        probe()
        self.probes.append((start, time.perf_counter() - start))

    def start(self) -> None:
        """Probe every ``INTERVAL_S`` until :meth:`stop`."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        # the handler stays, so a signal already raised is still handled
        signal.setitimer(signal.ITIMER_REAL, 0)

    def boundary(self) -> int:
        """Probe now; the index of that probe."""
        self.sample()
        return len(self.probes) - 1

    def probe_seconds(self, begin: float, end: float) -> float:
        """Seconds of the probes that started in ``[begin, end)``."""
        return sum(s for t, s in self.probes if begin <= t < end)

    def measure(self, first: int, last: int, begin: float,
                end: float) -> Tuple[float, float]:
        """Host seconds from ``begin``, just after boundary ``first``, to
        ``end``, just before boundary ``last``, without the probes in
        between: as measured, and at the reference speed, from the mean
        of the probes ``first`` to ``last``."""
        inside = sum(s for t, s in self.probes[first + 1:last] if t < end)
        wall = end - begin - inside
        speeds = [s for _, s in self.probes[first:last + 1]]
        return wall, wall * REF_S * len(speeds) / sum(speeds)


#: the one meter of a worker process
METER = Speedometer()
