"""Host speed, sampled while the program runs.

A shared host runs the same code at full or at about half speed, switching
within a fraction of a second and staying in one mode for minutes at other
times.  SpeedSampler times yardstick() every SAMPLE_EVERY_S seconds of wall
time while the code under measurement runs, and scales that code's time to
a host on which yardstick() takes YARDSTICK_MS.

This module imports only built-in modules, so that a set-up probe can start
sampling before anything cupgame imports has been loaded.
"""

import gc
import math
import signal
from time import perf_counter

SAMPLE_EVERY_S = 0.02
YARDSTICK_MS = 0.15


def _add(a, b):
    numerator, denominator = a[0] * b[1] + b[0] * a[1], a[1] * b[1]
    divisor = math.gcd(numerator, denominator)
    return numerator // divisor, denominator // divisor


def yardstick():
    """Thirty greedy steps on 16 cups whose fills are reduced fractions.

    No cupgame code runs here, so no change to cupgame moves it.
    """
    fills = [(cup % 13, cup % 7 + 1) for cup in range(16)]
    for _ in range(30):
        fills.sort(key=lambda fill: fill[0] * 720720 // fill[1], reverse=True)
        for cup in range(0, 16, 4):
            fills[cup] = _add(fills[cup], (1, 16))


class SpeedSampler:
    """Samples host speed evenly over the wall time between start() and stop().

    A SIGALRM handler times yardstick() between two bytecodes of the code
    under measurement.  Code that runs for t seconds while the host runs at
    speed v does work in proportion to the mean of v over t, which is what
    the mean of YARDSTICK_MS / yardstick time estimates.  A yardstick run
    before and after the code would miss the slow spells in between.
    """

    def __init__(self):
        self.samples = []  # seconds of every yardstick run
        self._first = 0  # index in samples of the current interval's first sample
        self._spent = 0.0  # seconds the current interval spent in the handler
        self._start = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        # a collection of the measured code's garbage is that code's cost:
        # with the collector off, it runs at the code's next allocation instead
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        yardstick()
        self.samples.append(perf_counter() - start)
        self._spent += perf_counter() - start
        if collecting:
            gc.enable()

    def start(self):
        self._first, self._spent = len(self.samples), 0.0
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        """Wall and scaled seconds since start(), both less the yardstick's time."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - self._start - self._spent
        if len(self.samples) == self._first:  # shorter than one interval
            self._sample(None, None)
        samples = self.samples[self._first:]
        speed = sum(YARDSTICK_MS / 1000 / sample for sample in samples) / len(samples)
        return elapsed, elapsed * speed
