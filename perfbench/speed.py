"""The machine's speed, sampled while the benchmark runs.

Shared virtual machines change speed by tens of percent over seconds, and a
vCPU slowed by its host reads as busy, so neither wall time nor CPU time
holds still. :class:`Speedometer` runs a fixed calibration kernel -- no
code of the program, a mix of interpreter work and small numpy calls
like the program's own -- from a ``SIGALRM`` handler every
:data:`PERIOD_S`, between the bytecodes of whatever the benchmark is
doing. The kernel runs cold, as the program's own work left the caches:
a second, warm run takes half as long and follows the machine's slow
stretches less well.

Each sample's speed is the reference kernel time over its own time;
``speed(t0, t1)`` is the mean sample speed in ``[t0, t1)``, the
machine's speed averaged over the window's time: below 1 on a slow
stretch, so ``seconds * speed`` is the time the same work takes at
reference speed. (The median kernel time would read a machine that
switches between fast and slow states as whichever state held longer.)
The sampling costs about 0.5% of the run.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

import numpy as np

__all__ = ["Speedometer", "kernel"]

PERIOD_S = 0.05
#: The kernel's time at reference speed: its median on a 2-vCPU
#: Linux VM running Python 3.11 and numpy 2.4.
REFERENCE_NS = 250_000


def kernel() -> int:
    """A fixed slice of interpreter and numpy work."""
    counts = {}
    pairs = []
    for i in range(400):
        counts[i % 37] = counts.get(i % 37, 0) + i
        pairs.append((i, i * 0.5))
    pairs.sort(key=lambda p: -p[1])
    a = np.arange(64.0)
    for _ in range(4):
        a = np.sort(a[::-1] * 1.0001)
    return len(counts) + len(pairs) + a.size


class Speedometer:
    """Samples the calibration kernel on a timer while in a ``with``."""

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.durations: List[int] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter_ns() - t0)

    def __enter__(self) -> "Speedometer":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, t0_ns: int, t1_ns: int) -> float:
        """Mean speed of the samples in the window.

        A window too short to hold a sample uses the nearest one.
        """
        lo = bisect.bisect_left(self.starts, t0_ns)
        hi = bisect.bisect_left(self.starts, t1_ns)
        window = self.durations[lo:hi] or \
            [self.durations[min(lo, len(self.durations) - 1)]]
        return statistics.fmean(REFERENCE_NS / d for d in window)

    def summary(self) -> dict:
        return {"samples": len(self.durations),
                "kernel_median_us": statistics.median(self.durations) / 1e3,
                "reference_us": REFERENCE_NS / 1e3,
                "period_s": PERIOD_S}
