"""Elapsed times with the host's CPU steal taken out.

On a shared virtual machine the hypervisor runs other guests on this
guest's CPUs; Linux counts that time as *steal* in ``/proc/stat``.  On
the 2-vCPU host the benchmark was sized on, steal took 5-50% of the time
the CPUs wanted to run, drifting over tens of seconds, and moved
wall-clock results between runs by more than any bound worth having.

Every time the benchmark reports is therefore *unstolen*: the wall time
of the interval scaled by ``1 - s``, where ``s`` is the share of CPU
time the host stole over that interval (stolen / (busy + stolen), summed
over all CPUs; idle time is not counted because an idle CPU cannot be
stolen from).  A CPU-bound interval then reads what it would on an
unshared host.  Where ``/proc/stat`` reports no steal, ``s`` is 0 and the
times are plain wall clock.  The kernel counts in ticks of 10 ms, so the
correction of a single short interval is coarse; percentiles over many
intervals are not.
"""

from __future__ import annotations

import bisect
import time
from typing import List, Optional, Tuple

Ticks = Tuple[int, int]


def host_ticks() -> Ticks:
    """``(busy, stolen)`` CPU ticks since boot, summed over all CPUs."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0, 0
    values = [int(field) for field in fields[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = values + [0] * (8 - len(values))
    return user + nice + system + irq + softirq, steal


def steal_share(before: Ticks, after: Ticks) -> float:
    busy = after[0] - before[0]
    stolen = after[1] - before[1]
    total = busy + stolen
    return stolen / total if total > 0 else 0.0


def unstolen(seconds: float, before: Ticks, after: Ticks) -> float:
    return seconds * (1.0 - steal_share(before, after))


#: Shortest window a steal share is taken over.  A call of a few ticks
#: alone gives a share of 0, 1/2 or 1; the share over the last half
#: second of samples is smooth and still follows the host's drift.
MIN_WINDOW_S = 0.5


class StealLog:
    """Host tick samples over a phase, for intervals too short to correct alone."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.ticks: List[Ticks] = []

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        self.ticks.append(host_ticks())

    def share(self, start: float, end: float) -> float:
        """Steal share between the last sample at or before ``start`` and
        the first at or after ``end`` (the whole log at its edges)."""
        if len(self.times) < 2:
            return 0.0
        first = max(bisect.bisect_right(self.times, start) - 1, 0)
        last = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        if last <= first:
            last = min(first + 1, len(self.times) - 1)
            first = last - 1
        return steal_share(self.ticks[first], self.ticks[last])

    def unstolen(self, start: float, end: float) -> float:
        """``end - start`` with the steal share of a window of at least
        :data:`MIN_WINDOW_S` around it taken out."""
        pad = max(MIN_WINDOW_S - (end - start), 0.0) / 2
        return (end - start) * (1.0 - self.share(start - pad, end + pad))


class Stopwatch:
    """``with Stopwatch(log) as watch: ...`` then ``watch.seconds`` (unstolen).

    Without a log the interval's own ticks are used (fine for intervals of
    a second or more); with one, the log is sampled at both ends and the
    share is taken over at least the last :data:`MIN_WINDOW_S` of it.
    """

    seconds = 0.0
    wall = 0.0

    def __init__(self, log: Optional[StealLog] = None) -> None:
        self._log = log

    def __enter__(self) -> "Stopwatch":
        if self._log is not None:
            self._log.sample()
        self._ticks = host_ticks()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self.wall = end - self._start
        if self._log is None:
            self.seconds = unstolen(self.wall, self._ticks, host_ticks())
            return
        self._log.sample()
        window_start = min(self._start, end - MIN_WINDOW_S)
        self.seconds = self.wall * (1.0 - self._log.share(window_start, end))
