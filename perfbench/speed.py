"""Machine-speed calibration, for hosts whose speed drifts while a run measures.

On a shared 2-CPU host the same pass can take 1.5x longer a minute later, so
raw wall times of separate runs do not compare. ``SpeedProbe`` runs a fixed
calibration kernel from a SIGALRM handler every ``INTERVAL_S`` seconds while
the measured code runs, on the same thread and so on the same CPU, and
rescales a measured interval to the speed at which the kernel takes
``KERNEL_REF_S`` seconds of CPU time. CPU time, not wall time: a host that
slows down stretches both, while the benchmark's own pool workers, which share
the CPUs with the kernel, stretch only the kernel's wall time. The kernel mixes the work the package does: dict
updates with tuple keys, sorting, and small numpy row updates.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# The kernel's typical duration on the 2-CPU Xeon (2.1 GHz) host the benchmark
# was written on; only ratios between runs matter.
KERNEL_REF_S = 0.003

_KEYS = [(f"p{i % 397:04d}", f"p{i % 389:04d}") for i in range(1800)]
_ROWS = np.array([1, 2, 3])


def kernel() -> int:
    counts: dict[tuple[str, str], int] = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted((-c, key) for key, c in counts.items())
    a = np.full((6, 32), 0.01)
    for _ in range(180):
        a[_ROWS] += 0.001 * (a[_ROWS] @ a[0])[:, None]
    return len(ranked)


class SpeedProbe:
    """Samples the kernel's duration while active (a context manager)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (wall start, CPU seconds)
        self._previous = None

    def _tick(self, signum, frame) -> None:
        started, cpu = time.perf_counter(), time.thread_time()
        kernel()
        self.samples.append((started, time.thread_time() - cpu))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_seconds(self, start: float, end: float) -> float:
        """CPU time the kernel itself took inside [start, end)."""
        return sum(d for s, d in self.samples if start <= s < end)

    def factor(self) -> float:
        """Reference kernel time over the mean sampled kernel CPU time."""
        if not self.samples:
            self._tick(None, None)
        return KERNEL_REF_S / statistics.fmean(d for _, d in self.samples)

    def scaled(self, start: float, end: float) -> float:
        """Seconds the interval would take at the reference speed, without
        the kernel's own time."""
        return (end - start - self.kernel_seconds(start, end)) * self.factor()
