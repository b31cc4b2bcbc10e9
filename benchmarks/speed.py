"""Timing in reference seconds, for a host whose speed drifts.

On a shared host the same pure-Python loop runs up to ~1.7 times slower from
one ten-second stretch to the next, and the slowdown is not accounted as steal
time, so neither wall time nor CPU time of a call repeats between runs. A
``Clock`` therefore interrupts the timed call every ``INTERVAL_S`` (SIGALRM) to
time a short fixed pure-Python loop, the probe. The call's own time (wall time
minus the probes it contained) is scaled by the mean of ``REFERENCE_PROBE_S /
probe time``. The probes are evenly spaced in wall time, so that mean is the
host's speed averaged over the call, and the result is the seconds the call
would have taken on a host that runs the probe in ``REFERENCE_PROBE_S``. The
probes take about 2.5% of the call.

The probe reads a 2 MiB table of floats in a fixed random order. A probe that
only touches a few cache lines slows down less than the program on this kind
of host; one that misses the cache as the program does follows the program's
slowdowns much more closely, though not exactly (see ``README.md``).
"""
from __future__ import annotations

import random
import signal
import statistics
import time

INTERVAL_S = 0.05
# About the median probe time inside a backtest iteration on the baseline
# machine (2 vCPUs, Python 3.11.7).
REFERENCE_PROBE_S = 0.001

_TABLE = [float(i) for i in range(1 << 16)]
_ORDER = random.Random(0).choices(range(len(_TABLE)), k=3000)


def probe() -> float:
    """Seconds one pass of scattered reads over ``_TABLE`` takes."""
    start = time.perf_counter()
    table = _TABLE
    total = 0.0
    for i in _ORDER:
        total += table[i]
    return time.perf_counter() - start


class Clock:
    """Context manager that times its block in reference seconds.

    Single-threaded use only: it owns SIGALRM and the real-time interval timer
    while the block runs.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.probes: list[float] = []
        self.wall = 0.0
        self._inside = 0.0

    def _tick(self, signum, frame) -> None:
        took = probe()
        self.probes.append(took)
        self._inside += took

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.probes:
            # A block shorter than the interval: probe once, after it.
            self.probes.append(probe())

    @property
    def speed(self) -> float:
        """How fast the host ran the block, relative to the reference host."""
        return statistics.fmean(REFERENCE_PROBE_S / p for p in self.probes)

    @property
    def seconds(self) -> float:
        """The block's own time, in reference seconds."""
        return (self.wall - self._inside) * self.speed
