"""Host-speed probe: a fixed numpy kernel, timed between operations.

On a shared host the machine itself runs slower or faster as its
neighbours load it. On a 2-vCPU KVM guest on a Xeon (family 6, model 207),
one score pass took 0.58 s or 1.1 s depending on the minute, and over eight
minutes the plan-replan latency fell from 200 to 105 ms with no change in
the code. CPU time tracked wall time through these drifts, so they are not
the scheduler but the cores running slower, probably from contention for
shared caches and memory: a loop walking 15 MB at random slowed more than
this kernel, which stays within a few MB. Thirty seconds of medians cannot
average out a drift that lasts minutes.

So every untraced run also times this kernel, about once a second, between
its operations, and reports its end-to-end times at the reference speed:
each measured time multiplied by ``REFERENCE_S`` over the median probe time
of the run (throughput divided by it). The kernel is the benchmark's own
code, so a change to the program does not move it. Over ten 30-second runs
per workload on that guest, each with another seed, the spread of the
median latency between the quartiles, as a share of the median, was 0.16
unscaled and 0.11 scaled on plan-cold, 0.16 and 0.07 on plan-replan, and
0.41 and 0.08 on score-quick. The unscaled times and the probe times are
printed beside the scaled ones and kept in ``result.json``.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Probe time on the idle 2-vCPU guest named above (its fastest runs took
#: 15.1 ms): at this speed scaled and raw times are equal.
REFERENCE_S = 0.016

#: Least seconds between two probes inside a timed phase.
EVERY_S = 1.0

_POINTS = np.random.default_rng(12345).random((600, 2))


def _kernel() -> float:
    """Distance matrix of 600 points, row argsort and a gather (~6 MB)."""
    diff = _POINTS[:, None, :] - _POINTS[None, :, :]
    dist = np.sqrt((diff * diff).sum(-1))
    order = np.argsort(dist, axis=1)
    return float(dist[np.arange(len(dist))[:, None], order[:, :8]].sum())


class Prober:
    """Times the kernel at most every ``EVERY_S`` seconds.

    ``intervals`` holds the ``(start, end)`` of each probe, warm-up run
    included, so that time can be taken out of a phase's duration.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.intervals: list[tuple[float, float]] = []
        self._last = -math.inf

    def probe(self) -> None:
        """One untimed run to warm the caches, then one timed run."""
        start = time.perf_counter()
        _kernel()
        t0 = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.samples.append(end - t0)
        self.intervals.append((start, end))
        self._last = end

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.probe()


def busy_s(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Seconds of ``intervals`` that fall inside ``[start, end]``."""
    return sum(max(0.0, min(b, end) - max(a, start)) for a, b in intervals)


def factor(samples: list[float]) -> float:
    """``REFERENCE_S`` over the median probe time."""
    return REFERENCE_S / statistics.median(samples)
