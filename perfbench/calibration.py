"""Machine-speed calibration, so that op times survive a noisy shared host.

On a shared virtual machine the CPU time of one and the same op drifts by
+-25% as other tenants load the host, which switches between a fast and a
slow state.  A fixed task in pure Python (Fraction arithmetic, the instruction
mix of geonet's exact layers, and building and indexing a few thousand small
tuples) is timed between ops.  Scaling an op's CPU time by
REFERENCE_S / (task time measured around it) cancels the drift and keeps the
result in seconds at one fixed reference speed.  The task uses the standard
library only, so no change to geonet can change it.

The correction is exact only for ops that slow down as much as the task.  On
a 2-vCPU host the slow state made the task and the n = 6 chord census 1.57
times slower, but the memory-heavy n = 8 census only 1.25 times, so
chord_census items_per_s still moves by about 10% with the host's state.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0035  # the task's CPU time at the reference speed
REPEATS = 3
INTERVAL_S = 0.05  # least time between two samples
WINDOW_S = 0.3  # samples this close to a short op scale it


def _task() -> int:
    acc = Fraction(0)
    for k in range(1, 150):
        acc += Fraction(k, k + 7) * Fraction(2 * k + 1, 3 * k + 2)
    # many small objects in about a megabyte, like the chord census and the
    # flow's temporaries, so that cache and memory contention show too
    rows = [(k, (k * 7919) % 1013, (k, k + 1)) for k in range(6000)]
    index: dict[int, list] = {}
    for _, bucket, pair in rows:
        index.setdefault(bucket, []).append(pair)
    return len(index) + acc.numerator % 7


def task_seconds() -> float:
    """Median CPU time of the task over a few repeats."""
    times = []
    for _ in range(REPEATS):
        start = time.process_time()
        _task()
        times.append(time.process_time() - start)
    return statistics.median(times)


class Calibration:
    """Task timings taken between ops; scales each op by those around it."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, task seconds)
        self.last = 0.0

    def sample(self) -> None:
        seconds = task_seconds()
        self.last = time.perf_counter()
        self.samples.append((self.last, seconds))

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor for an op that ran from start to end (perf_counter times).

        Uses the mean of the samples within WINDOW_S of the op, or within
        its own duration if that is longer.  The host switches between a fast
        and a slow state every second or so, so a short op is scaled by the
        samples right around it; a long op spans several switches and rests
        on samples spread over as long as it ran.  An op's CPU time is the
        time-average of the host's cost over the op, which the mean follows;
        a median of the two states jumps between them.
        """
        reach = max(WINDOW_S, end - start)
        near = [s for t, s in self.samples if start - reach <= t <= end + reach]
        if not near:
            near = [min(self.samples, key=lambda ts: abs(ts[0] - end))[1]]
        return REFERENCE_S / statistics.fmean(near)
