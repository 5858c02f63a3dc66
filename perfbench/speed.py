"""A speed probe: a fixed pure-Python kernel timed between the timed calls.

The speed that one process gets from a small shared host changes by up to
2x within seconds and drifts over minutes, and the program's time moves
with it.  The probe runs a fixed graph kernel (set and dict lookups, list
appends, integer arithmetic: the kind of work defcolor does) after every
timed call, for a fixed share of that call's time, so its samples cover a
run evenly and see the same machine conditions as the calls around them.

``Probe.factor(start, end)`` is how much slower than ``REF_KERNEL_S`` the
kernel ran near the span ``[start, end]``: the mean of the samples taken
within one span length of it, and at least the nearest sample on either
side.  A short call is judged by its neighbours only, which share its
machine state; a long one, which lives through many changes of state, by
as wide a stretch of time as its own.  Timings divided by the factor read
as times at the reference speed.

The kernel imports nothing from defcolor, so a change to the program
cannot move it.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

# The kernel's time on the reference machine (2-vCPU Intel Xeon VM,
# Python 3.11.7) in its fast periods.
REF_KERNEL_S = 0.0005

# After each timed call the probe runs the kernel once, plus once for
# every PROBE_EVERY_S of the call's time.
PROBE_EVERY_S = 0.02


def _graph(n: int = 64, p: float = 0.12):
    rng = random.Random("perfbench-speed-probe")
    adj = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


_ADJ = _graph()


def kernel() -> int:
    """Breadth-first search from every third vertex; returns a checksum."""
    total = 0
    for source in range(0, len(_ADJ), 3):
        dist = {source: 0}
        queue = [source]
        for v in queue:
            for u in _ADJ[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        total += sum(dist.values()) * len(queue)
    return total


_CHECKSUM = kernel()


class Probe:
    """Kernel times sampled through a run, with the time each one ended."""

    def __init__(self):
        self.ends: list[float] = []
        self.samples: list[float] = []

    def sample(self, reps: int = 1) -> None:
        clock = time.perf_counter
        for _ in range(reps):
            start = clock()
            check = kernel()
            end = clock()
            if check != _CHECKSUM:
                raise AssertionError("speed probe kernel gave a different answer")
            self.ends.append(end)
            self.samples.append(end - start)

    def after(self, busy_s: float) -> None:
        """Sample once, and once more per ``PROBE_EVERY_S`` of ``busy_s``."""
        self.sample(1 + int(busy_s / PROBE_EVERY_S))

    def factor(self, start: float, end: float) -> float:
        """Slowdown against ``REF_KERNEL_S`` near the span ``[start, end]``."""
        width = end - start
        first = bisect.bisect_left(self.ends, start) - 1
        last = bisect.bisect_right(self.ends, end)
        lo = min(max(first, 0), bisect.bisect_left(self.ends, start - width))
        hi = max(last + 1, bisect.bisect_right(self.ends, end + width))
        return statistics.fmean(self.samples[lo:hi]) / REF_KERNEL_S
