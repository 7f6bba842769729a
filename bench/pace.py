"""Core-speed correction for the benchmark's timings.

The cores of a shared host do not run at one speed: when other tenants
load the same physical core, a rep of the simulator can take 1.6 times
as long, and such phases come and go every few seconds. CPU time slows
with them, so it cannot tell them apart from a slower program.

:class:`Pace` measures the speed of the core the rep runs on while the
rep runs. A ``SIGALRM`` interval timer interrupts the program every
``PERIOD_S`` seconds and times :func:`probe`, a fixed piece of
interpreter work (heap, dict and attribute operations on small objects,
as in the simulator). The program's state is untouched: the handler
only reads the clock and runs the probe. A phase's *pace* is the probe's
full-speed time over its measured time, weighted by the wall time each
sample covers. The benchmark reports every timing as its wall time,
less the probes, times the pace: the time the phase would take with the
core at full speed.
"""

from __future__ import annotations

import heapq
import signal
import time

__all__ = ["PERIOD_S", "REF_PROBE_S", "Pace", "probe"]

#: Sampling period of the interval timer.
PERIOD_S = 0.02
#: The probe's time inside a rep at full core speed (its caches partly
#: cold after the simulator ran), on the 2-core Xeon box the baseline in
#: README.md comes from. Any fixed value works: it only sets the scale
#: that corrected timings read in.
REF_PROBE_S = 0.0002


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value

    def rank(self):
        return self.key * 31 + self.value


def probe(n: int = 200) -> int:
    """A fixed amount of interpreter work."""
    heap: list = []
    table: dict = {}
    total = 0
    for i in range(n):
        item = _Item(i, i & 7)
        heapq.heappush(heap, (item.rank() % 97, i, item))
        table[i & 63] = item
        if len(heap) > 32:
            total += heapq.heappop(heap)[2].value
        total += table[i & (i * 5) & 63].key & 3
    return total


class Pace:
    """Samples the probe on an interval timer.

    ``start`` arms the timer, ``stop`` disarms it and restores the old
    handler. :meth:`mark` takes one sample at once, so that every phase
    has samples at both ends. :meth:`phase` reads a phase back.
    """

    def __init__(self):
        #: (time the probe started, probe seconds)
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def start(self) -> float:
        """Arm the timer; return the clock after the first sample."""
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self.mark()[1]

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        self.mark()

    def mark(self) -> tuple[float, float]:
        """Take one sample; return the clock before and after it.

        The clock is ``time.monotonic``, the one the parent process
        reads, so set-up can be timed across the two processes.
        """
        started = time.monotonic()
        probe()
        ended = time.monotonic()
        self.samples.append((started, ended - started))
        return started, ended

    def phase(self, begin: float, end: float) -> tuple[float, float]:
        """``(probe_s, pace)`` of the wall interval ``[begin, end]``.

        ``probe_s`` is the probes' own time inside it, to subtract from
        the interval. ``pace`` weights each sample by the wall time since
        the previous one, the stretch of the program it measured; a
        sample taken at ``end`` measures the last stretch.
        """
        probe_s = 0.0
        covered = 0.0
        weighted = 0.0
        last = None
        for started, took in self.samples:
            if started < begin:
                last = started + took
                continue
            if started > end:
                break
            if started < end:
                probe_s += took
            if last is not None:
                span = started - last
                covered += span
                weighted += span * REF_PROBE_S / took
            last = started + took
        if covered <= 0.0:
            return probe_s, 1.0
        return probe_s, weighted / covered
