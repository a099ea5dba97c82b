"""How fast the host's CPU is running right now, from a fixed probe.

The benchmark runs on a few cores of a shared host, and those cores run
the same work up to about twice as slowly for minutes at a time as
other tenants load the machine: the probe loop below took 9.7 ms on a
quiet core and 11-18 ms in busy periods of the same hour, CPU time
tracking wall time (the cores run slower; the process is not
descheduled).  The program's wall time follows the slowdown, though
not fully: cache-heavy contention slows it more than the loop.

So every timed phase is bracketed by this probe, in the same process,
and its time is scaled to the speed of a quiet host::

    reference_s = wall_s * REFERENCE_PROBE_S / probe_s

The probe is benchmark code and calls nothing in the program, so a
change to the program moves ``wall_s`` and not ``probe_s``.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Iterations of the probe loop: about 10 ms on a quiet core.
PROBE_ITERATIONS = 150_000
#: Probe samples taken before and again after a timed phase.
SAMPLES_PER_SIDE = 4
#: The probe's time on an uncontended core of the 2-core 2.1 GHz Xeon
#: host this benchmark was written on.  Only the ratio to it matters;
#: scaled times read as seconds on that host when it is quiet.
REFERENCE_PROBE_S = 0.010


def _loop() -> int:
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return total


def sample(n: int = SAMPLES_PER_SIDE) -> List[float]:
    """``n`` timings of the probe loop, in seconds."""
    times = []
    for _ in range(n):
        started = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - started)
    return times


def probe_s(*samplings: List[float]) -> float:
    """The probe time standing for the phase the samplings bracket."""
    return statistics.median(t for times in samplings for t in times)


def to_reference(seconds: float, probe: float) -> float:
    """Scale a time measured while the probe took ``probe`` seconds."""
    return seconds * REFERENCE_PROBE_S / probe
