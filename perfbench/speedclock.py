"""Wall time rescaled to a fixed host speed.

The host this benchmark runs on changes speed by itself: a fixed loop can
take up to 2x longer for tens of seconds, then speed up again.  A timed phase of
a few seconds therefore reads 20-30 % apart between runs of the same code.

`SpeedClock` samples the host's speed while the workload runs.  Every
PERIOD_S a SIGALRM handler times a fixed pure-Python reference loop.  An
interval of the workload then counts each stretch between two samples at
REF_S / (local loop time), where the local loop time is the median of the
nearest samples.  The result is the time the interval would take on a host
that runs the reference loop in REF_S: on the defining host at its usual
speed, about the wall time.  The loops themselves are left out of it.

The reference loop mixes integer arithmetic, Fraction arithmetic and dict
building, in about equal parts.  Against a ladderlie commutator timed
alongside it for 90 s, its time moved in proportion (log-log slope 0.99)
and took out half of the commutator's swings; the integer loop alone
under-corrects (slope 1.25).  It uses only the standard library, so a change
to ladderlie cannot change it.

    with SpeedClock() as clock:
        a = time.perf_counter(); work(); b = time.perf_counter()
    ref_seconds = clock.scaled(a, b)     # wall_seconds = clock.wall(a, b)
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.0016           # median reference-loop time on the defining host (2.1 GHz Xeon VM)
PERIOD_S = 0.1           # seconds between samples
WINDOW = 5               # samples whose median gives the local loop time


def reference_loop() -> float:
    """Time of the fixed reference loop, in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(6000):
        total += i * i
    q = Fraction(0)
    for i in range(1, 80):
        q += Fraction(i, i + 7) * Fraction(3, i + 1)
    table = {}
    for i in range(1200):
        table[(i, i & 7)] = (i * 3, str(i))
    return time.perf_counter() - start


class SpeedClock:
    def __init__(self):
        self.samples = []        # (start, end) of each reference loop
        self._busy = False
        self._old_handler = None
        self._local = []         # local loop time around each sample

    def _sample(self, *_):
        if self._busy:           # a signal that lands during a sample is dropped
            return
        self._busy = True
        start = time.perf_counter()
        reference_loop()
        self.samples.append((start, time.perf_counter()))
        self._busy = False

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._sample()
        self._smooth()
        return False

    def _smooth(self):
        times = [end - start for start, end in self.samples]
        half = WINDOW // 2
        self._local = [statistics.median(times[max(0, k - half):k + half + 1])
                       for k in range(len(times))]

    def _gaps(self, a: float, b: float):
        """(length, k) of each part of [a, b] between samples k and k + 1."""
        for k in range(len(self.samples) - 1):
            lo = max(a, self.samples[k][1])
            hi = min(b, self.samples[k + 1][0])
            if hi > lo:
                yield hi - lo, k

    def wall(self, a: float, b: float) -> float:
        """Wall seconds of [a, b] spent outside the reference loops."""
        return sum(length for length, _ in self._gaps(a, b))

    def scaled(self, a: float, b: float) -> float:
        """Reference-speed seconds of [a, b], a perf_counter interval inside the clock.

        Call it after the clock has stopped.  The stretch between two samples
        counts at the mean of their speeds; the reference loops count for
        nothing.
        """
        local = self._local
        return sum(length * REF_S * (1.0 / local[k] + 1.0 / local[k + 1]) / 2.0
                   for length, k in self._gaps(a, b))
