"""Machine-speed normalization of CPU-bound timings.

On a shared host the same session can take 1.9 s one minute and 3.0 s
the next, and the slow phases last longer than a benchmark run, so
medians of raw wall times drift from run to run by 20 % and more.  The
drift is common to all CPU work in the process: a fixed calibration
kernel, timed between the samples of a run, slows down with it.

A sample's CPU seconds (its own and its children's, at most its wall
time) are therefore rescaled to the speed at which the kernel takes
``REFERENCE_S``; the rest of its wall time is waiting (socket timers,
process start-up) and is kept as measured:

    normalized = (wall - cpu) + cpu * REFERENCE_S / kernel time

where the kernel time is the mean of the timings just before and just
after the sample.  The host flips between fast and slow phases within
seconds; pairing each sample with the kernel timings around it tracks
the flips, where one mean over the whole run would leave the median
sample to chance.  The interpreter-bound aggregate sessions and the
per-slot backend's passes over 3e6-slot arrays both track this kernel
(six-run trial: per-slot spread 23 % raw, 6 % normalized).  Raw wall
times are reported alongside.
"""

from __future__ import annotations

import resource
import time

import numpy as np

REFERENCE_S = 0.2

_PROBS = np.random.default_rng(0).random((12, 12, 4))
_PROBS /= _PROBS.sum(axis=-1, keepdims=True)


def kernel_seconds() -> float:
    """Wall time of a fixed mix of interpreter work and small numpy calls."""
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    table: dict = {}
    for i in range(1_500_000):
        table[i & 127] = table.get(i & 127, 0) + i
    for _ in range(40):
        for row in _PROBS:
            for probs in row:
                rng.multinomial(1000, probs)
        np.exp(_PROBS * 3.0).sum()
    return time.perf_counter() - start


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Timeline:
    """Kernel timings interleaved with the samples of one run."""

    def __init__(self):
        self.kernels = [kernel_seconds()]

    def normalize(self, wall: float, cpu: float) -> float:
        """Time the kernel once more and normalize the sample that ran
        since the previous timing; call once after each sample."""
        self.kernels.append(kernel_seconds())
        kernel = (self.kernels[-2] + self.kernels[-1]) / 2
        cpu = min(cpu, wall)
        return wall - cpu + cpu * REFERENCE_S / kernel
