"""Machine-speed probe for untraced rounds.

The benchmark shares its machine with other work, and the speed of a core
swings by a quarter or more within seconds.  `SpeedProbe` samples that
speed while the program runs: every PERIOD seconds a SIGALRM handler times
a fixed pure-Python kernel (tuples, frozensets, a dict and a sort, like the
program's own work).  A measured interval is then reported in reference
seconds: its duration minus the probe's own time inside it, scaled by
REFERENCE / (median kernel time of the samples around it).  The kernel is
part of the benchmark, so a change to the program does not change it.

Single-threaded: the handler runs in the main thread between bytecodes, so
no sample straddles a clock reading taken by the caller.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD = 0.1  # seconds between samples
MARGIN = 0.3  # seconds around an interval whose samples give its speed
MIN_SAMPLES = 3
REFERENCE = 0.0025  # kernel seconds that define one reference second
KERNEL_SIZE = 2000  # entries; about REFERENCE on an idle 2 GHz Xeon core


def kernel(n: int = KERNEL_SIZE) -> int:
    table = {}
    for i in range(n):
        key = (i % 97, i % 89, i)
        table[key] = frozenset(key[:2])
    return sum(1 for key, members in sorted(table.items()) if key[0] in members)


class SpeedProbe:
    """Timer-driven kernel samples: (start, end) pairs in perf_counter time."""

    def __init__(self):
        self.starts: list = []
        self.ends: list = []
        self._sampling = False
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        if not self._sampling:  # a late alarm must not nest a sample
            self.sample()

    def sample(self) -> None:
        self._sampling = True
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
        finally:
            self._sampling = False
        self.starts.append(start)
        self.ends.append(end)

    def _within(self, a: float, b: float) -> range:
        return range(bisect.bisect_left(self.starts, a),
                     bisect.bisect_right(self.ends, b))

    def busy(self, a: float, b: float) -> float:
        """Probe time spent inside [a, b]."""
        return sum(self.ends[i] - self.starts[i] for i in self._within(a, b))

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of the interval [a, b] of clock time."""
        return (b - a - self.busy(a, b)) * self.scale(a, b)

    def scale(self, a: float, b: float) -> float:
        """REFERENCE over the median kernel time of the samples taken
        within MARGIN of [a, b], the margin doubled until MIN_SAMPLES."""
        if not self.starts:
            raise ValueError("no speed sample taken")
        margin = MARGIN
        while True:
            near = self._within(a - margin, b + margin)
            if len(near) >= min(MIN_SAMPLES, len(self.starts)):
                break
            margin *= 2
        return REFERENCE / statistics.median(
            self.ends[i] - self.starts[i] for i in near)
