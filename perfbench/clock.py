"""Wall time rescaled to a reference CPU speed.

The benchmark runs on a few cores of a shared host. There, the speed of one
core changes by up to 1.5x within seconds, as the host's other tenants come
and go and contend for its caches; a fixed loop timed back to back shows
it. That noise swamps the changes the benchmark is meant to show.
``SpeedProbe`` measures it in the process that does the work. While it is
active, a timer signal interrupts the process every ``INTERVAL_S`` of wall
time, and the handler times a fixed probe: lookups of keys in a large
dict, in random order, interpreter work whose speed depends on cache misses
as the pipeline's own does. The probe also runs once on entry and once on exit.
``scaled(seconds)`` turns a wall time measured inside the probe's span into
seconds on a reference CPU, one on which the probe takes ``REF_PROBE_S``:
it multiplies by ``REF_PROBE_S`` times the probe's mean speed (runs per
second) over the span. Samples fall at even steps of wall time, so the mean
weighs each speed by how long it lasted.

The probes' own time, about 1% of the span, stays in the measured time.
The handler runs only between Python bytecodes, so a long call into numpy
delays the next sample until it returns. The probe's table stays resident
while a process lives; ``footprint_mb()`` says how much memory it takes, so
that a peak RSS can leave it out.
"""

from __future__ import annotations

import functools
import random
import resource
import signal
import statistics
from pathlib import Path
from time import perf_counter

INTERVAL_S = 0.2
TABLE_SIZE = 200_000
LOOKUPS = 3000
# The probe's time on the reference CPU: about its usual time on a 2-vCPU
# Xeon VM of a shared host.
REF_PROBE_S = 0.0020


def _resident_mb() -> float:
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * resource.getpagesize() / 2**20


class _Table:
    """The probe's table and its keys in a fixed random order.

    Each probe looks up the next ``LOOKUPS`` keys, so the keys it touches
    were last touched long ago: the probe misses the caches the same way
    whether it runs back to back or between stretches of other work.
    """

    def __init__(self) -> None:
        before = _resident_mb()
        self.table = {f"host{i}.example.com/path/{i % 1000}": i for i in range(TABLE_SIZE)}
        self.keys = list(self.table)
        random.Random(0).shuffle(self.keys)
        self.next = 0
        self.footprint_mb = _resident_mb() - before

    def probe(self) -> int:
        """A fixed amount of work, about 2 ms long on that VM."""
        start = self.next
        self.next = (start + LOOKUPS) % (TABLE_SIZE - LOOKUPS)
        total = 0
        for key in self.keys[start : start + LOOKUPS]:
            total += self.table[key]
        return total


@functools.cache
def _shared() -> _Table:
    return _Table()


def footprint_mb() -> float:
    """Resident MB that the probe's table adds to a process."""
    return _shared().footprint_mb


class SpeedProbe:
    """Samples the probe's speed while active; use in the main thread."""

    def __init__(self) -> None:
        _shared()  # built before the span, so its cost is not measured
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        start = perf_counter()
        _shared().probe()
        self.samples.append(perf_counter() - start)

    def __enter__(self) -> SpeedProbe:
        self.samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def factor(self) -> float:
        """Reference seconds per wall second over the probe's span."""
        return REF_PROBE_S * statistics.fmean(1 / s for s in self.samples)

    def scaled(self, seconds: float) -> float:
        return seconds * self.factor()
