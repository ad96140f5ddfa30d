"""Machine-speed probe for the untraced benchmark run.

The reference machine is shared, and its speed swings by up to 1.6x. It
has a fast and a slow state, each lasting seconds, and whole minutes in
which the fast state hardly appears. CPU time swings the same way, so
descheduling is not the cause (README). A raw wall time therefore
measures the neighbours as much as nullag.

A timer interrupts the run every ``INTERVAL_S`` and times a fixed piece
of pure-Python work of the kinds nullag does most: Fraction arithmetic,
and building index tuples and a dict over them (as ``enumerate_minors``
and ``subspace_value_fn`` do). A command's wall time, minus the probes
that ran inside it, is divided by the median probe time around it and
multiplied by ``REFERENCE_PROBE_S``. The result is what the command would
take at the probe's reference speed, and it stays in seconds.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.025
# About the probe's duration in the fast state of the reference machine
# (2 cores, Python 3.11); it only fixes the scale of the reported times.
REFERENCE_PROBE_S = 0.001


def probe_work():
    acc = Fraction(0)
    for i in range(1, 130):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    pairs = list(itertools.combinations(range(16), 3))
    index = {pc: i for i, pc in enumerate(pairs)}
    return acc, len(index)


class SpeedProbe:
    """Samples the probe's duration from a SIGALRM interval timer."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            probe_work()
            self.starts.append(t0)
            self.durations.append(time.perf_counter() - t0)
        finally:
            self._busy = False

    def start(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0, t1):
        """Seconds that [t0, t1] would take at the reference speed.

        Probes that started inside the window are subtracted from it; the
        speed is the median of those probes and the nearest one on each
        side.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = self.durations[lo:hi]
        around = self.durations[max(0, lo - 1):hi + 1]
        if not around:
            raise RuntimeError("no speed probe ran; is SIGALRM blocked?")
        return ((t1 - t0) - sum(inside)) * REFERENCE_PROBE_S / statistics.median(around)
