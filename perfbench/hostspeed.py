"""How fast the host runs while an operation runs.

The benchmark's host is a share of a machine whose other tenants slow it
down by a third to a half, in stretches from milliseconds to many
minutes, so a whole run can land in a slow stretch.  Raw wall time then
moves between runs of the same code by more than any bound a code change
could be held to.

While the probe is on, SIGPROF fires every ``INTERVAL_S`` of the process's
CPU time and the handler times ``PROBE_LOOPS`` turns of a fixed
pure-Python loop.  The mean probe time over an operation says how fast the
host ran during it.  ``at_reference`` rescales the operation's time to a
host on which the probe takes ``REFERENCE_PROBE_S``: about what it takes
on an uncontended core of the 2-vCPU Xeon VM the benchmark was tuned on.
The probe costs under 1 % of the CPU, and its own time is taken out of
the operation's.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.005
PROBE_LOOPS = 500
WARM_LOOPS = 200
REFERENCE_PROBE_S = 30e-6
MIN_SAMPLES = 50  # an operation shorter than this many probes borrows its neighbours'


def _loop(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


def probe_once() -> float:
    """Time of ``PROBE_LOOPS`` turns of the loop, after ``WARM_LOOPS`` untimed
    ones that bring the interpreter's hot path back into cache after the
    operation it interrupted."""
    _loop(WARM_LOOPS)
    start = time.perf_counter()
    _loop(PROBE_LOOPS)
    return time.perf_counter() - start


def at_reference(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, rescaled to
    the reference speed."""
    return seconds * REFERENCE_PROBE_S / probe_s


def burst(n: int = 200) -> float:
    """Mean probe time over ``n`` probes taken now, back to back."""
    return statistics.fmean(probe_once() for _ in range(n))


class SpeedProbe:
    """Probe times, in seconds, in the order they were taken."""

    def __init__(self):
        self.samples: list[float] = []
        self.costs: list[float] = []  # the whole time of each probe, warm-up included
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(probe_once())
        self.costs.append(time.perf_counter() - start)

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def own_time(self, start: int, end: int) -> float:
        """Time the probes ``start:end`` took themselves."""
        return sum(self.costs[start:end])

    def mean(self, start: int, end: int) -> float:
        """Mean probe time over ``start:end``, widened on both sides to at
        least ``MIN_SAMPLES`` probes when the operation was shorter."""
        missing = max(0, MIN_SAMPLES - (end - start))
        lo = max(0, start - missing // 2)
        hi = min(len(self.samples), max(end, lo + MIN_SAMPLES))
        lo = max(0, min(lo, hi - MIN_SAMPLES))
        return statistics.fmean(self.samples[lo:hi])
