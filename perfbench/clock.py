"""Wall times corrected for the speed of a shared, noisy machine.

On a shared host the same job can take 25% longer or shorter from one minute
to the next, because other tenants compete for the core; that swamps the
bounds a benchmark is meant to hold.  ``SpeedClock`` measures the machine's
speed while the benchmark runs: a timer signal interrupts it every
``PERIOD_S`` seconds and times a fixed probe of stdlib Fraction arithmetic
(no library code, so no change to the library can move it).  A window's
corrected time leaves out the probes and scales each stretch between two
probes by ``PROBE_NOMINAL_S`` over the median time of the probes around it:
the time the window would have taken on a machine where the probe takes
``PROBE_NOMINAL_S``.  Raw wall times are reported next to corrected ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
PROBE_NOMINAL_S = 250e-6
NEIGHBOURS = 12  # probes on each side that set the local speed, about 0.25 s


def probe():
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(1, i % 7 + 1) * Fraction(i % 5 + 1, 3)
    return s


class SpeedClock:
    """Context manager that samples the probe while it is entered."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _speed(self, k):
        """Median probe time around probe k: the local seconds per probe."""
        k = min(k, len(self.durations) - 1)
        return statistics.median(
            self.durations[max(0, k - NEIGHBOURS):k + NEIGHBOURS + 1])

    def corrected(self, t0, t1):
        """Corrected seconds of the window [t0, t1] of perf_counter time."""
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_left(self.starts, t1)
        total, since = 0.0, t0
        for k in range(first, last):
            total += (self.starts[k] - since) / self._speed(k)
            since = self.starts[k] + self.durations[k]
        total += (t1 - since) / self._speed(last)
        return total * PROBE_NOMINAL_S
