"""Host speed reference: a fixed loop run between the program's operations.

The shared host's vCPUs switch between a fast and a slow state, about
1.7x apart: another tenant's work on the same physical core comes and
goes within seconds, and the share of slow time in a run drifts over
minutes.  Steal time does not show it, and the thread's CPU time moves
with its wall time, so no clock can subtract it.  Over ten 26 s runs
of the same analyses, the mean analysis time spread by 22% (quartile
distance over median) and the mean single-point price by 29%.

So the benchmark times a fixed loop of its own (Python arithmetic on a
numpy array; no code of the program) between the program's operations:
on both sides of every timed block of work, and at least every
:data:`PROBE_INTERVAL_S` where the benchmark can interleave one.  A
block's *adjusted* time is its measured time, less the probes inside
it, scaled by :data:`REFERENCE_PROBE_S` over the mean loop time across
the block, each loop weighted by the stretch of the block nearest to
it.  That is the time the block would take on a host where the loop
takes :data:`REFERENCE_PROBE_S`.  In the runs above, scaling each run
by its mean loop time brought the spreads down to 7% and 3%.

The loop is timed on the thread's CPU clock, not the wall clock: it
measures how fast the core executes, so the daemon sharing the core on
``serve_mixed`` may preempt it without changing the reading.  Every
timing of the program itself goes through
:func:`repro.obs.clock.perf_seconds`.
"""

from __future__ import annotations

import bisect
import contextlib
import statistics
import time
from dataclasses import dataclass
from typing import List

import numpy

from repro.obs.clock import perf_seconds

#: Iterations of the reference loop: 0.4 to 0.6 ms of CPU on the
#: development host (2 vCPUs), depending on its state.
PROBE_ITERATIONS = 2000

#: The loop's CPU seconds on the reference host.  A fixed constant: it
#: sets the scale of the adjusted times and cancels out of every
#: comparison between runs.
REFERENCE_PROBE_S = 0.0006

#: Longest stretch of work left without a probe where the benchmark can
#: interleave one.
PROBE_INTERVAL_S = 0.05

_VALUES = numpy.arange(64.0)


@dataclass
class Interval:
    """One timed block: *work* units between two perf_seconds readings."""

    start: float
    end: float
    work: float = 1.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class HostProbe:
    """Reference-loop readings over a run, and the adjustment they give."""

    def __init__(self) -> None:
        #: perf_seconds midpoint of each probe, ascending
        self.times: List[float] = []
        #: CPU seconds of each probe
        self.readings: List[float] = []
        #: wall seconds of each probe
        self.spent: List[float] = []

    def probe(self) -> None:
        start = perf_seconds()
        cpu = time.thread_time()
        total = 0.0
        for i in range(PROBE_ITERATIONS):
            total += float(_VALUES[i % 64] * 2.0)
        self.readings.append(time.thread_time() - cpu)
        end = perf_seconds()
        self.times.append((start + end) / 2)
        self.spent.append(end - start)

    def tick(self) -> None:
        """Probe if the last probe is older than PROBE_INTERVAL_S."""
        if not self.times or perf_seconds() - self.times[-1] >= PROBE_INTERVAL_S:
            self.probe()

    @contextlib.contextmanager
    def timed(self, out: List[Interval], work: float = 1.0):
        """Time the block as an Interval appended to *out*, with a probe
        on each side."""
        self.probe()
        start = perf_seconds()
        yield
        end = perf_seconds()
        self.probe()
        out.append(Interval(start, end, work))

    def busy(self, interval: Interval) -> float:
        """The interval's seconds less the probes run inside it."""
        lo = bisect.bisect_right(self.times, interval.start)
        hi = bisect.bisect_left(self.times, interval.end)
        return interval.seconds - sum(self.spent[lo:hi])

    def reading(self, interval: Interval) -> float:
        """Mean probe reading across the interval, each probe weighted by
        the part of the interval nearer to it than to any other probe;
        the probes just outside the interval count too."""
        start, end = interval.start, interval.end
        lo = max(bisect.bisect_right(self.times, start) - 1, 0)
        hi = min(bisect.bisect_left(self.times, end) + 1, len(self.times))
        times, readings = self.times[lo:hi], self.readings[lo:hi]
        edges = [start]
        edges += [min(max((a + b) / 2, start), end)
                  for a, b in zip(times, times[1:])]
        edges.append(end)
        weights = [b - a for a, b in zip(edges, edges[1:])]
        if sum(weights) <= 0.0:
            return statistics.fmean(readings)
        return sum(w * r for w, r in zip(weights, readings)) / sum(weights)

    def scale(self, interval: Interval) -> float:
        """Reference-host seconds per measured second over the interval."""
        return REFERENCE_PROBE_S / self.reading(interval)

    def adjusted(self, interval: Interval) -> float:
        """The interval's busy seconds on the reference host."""
        return self.busy(interval) * self.scale(interval)

    def rate(self, intervals: List[Interval]) -> float:
        """Work per adjusted second over *intervals*."""
        return (sum(i.work for i in intervals)
                / sum(self.adjusted(i) for i in intervals))

    def raw_rate(self, intervals: List[Interval]) -> float:
        """Work per busy second over *intervals*, unadjusted."""
        return (sum(i.work for i in intervals)
                / sum(self.busy(i) for i in intervals))

    def mean_reading_ms(self) -> float:
        return statistics.fmean(self.readings) * 1e3
