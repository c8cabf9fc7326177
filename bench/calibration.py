"""Host-speed calibration of measured times.

On a shared host the speed of a vCPU drifts: the same moduli_sweep pass took
2.2 to 4.3 s within three minutes on the 2-vCPU host the baseline was taken
on, with CPU time equal to wall time, so the drift is contention from other
tenants, not descheduling; a fixed loop's time swings by 2x within tens of
milliseconds.  Medians within a run cannot remove drift between runs, so
every end-to-end time is reported calibrated:

    calibrated = measured / trimmed mean(slowness of the reference kernels)

where a kernel's slowness is its time over its typical time on that host, so
calibrated and raw seconds agree there on average.  The two kernels, one
dict-and-integer bound and one allocation bound like the program, never
touch the program and run in the measuring process alongside the work they
calibrate, with the GC off so that the program's heap does not slow them.  During passes a SIGALRM handler times one of them, in turn,
every INTERVAL_S of wall time (no thread; the handler's time is subtracted
from the request it interrupted), and each request is calibrated by the
timings within WINDOW_S of it: the contention changes within a fraction of a
second, so a pass-wide factor leaves short requests noisy.  Cold processes
are bracketed by kernel timings just before and after.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

#: wall time between two kernel timings during a pass
INTERVAL_S = 0.025

#: kernel timings this close to a request calibrate it
WINDOW_S = 0.05


def _dict_work() -> int:
    d: dict[int, int] = {}
    for i in range(4000):
        k = i & 255
        d[k] = d.get(k, 0) + i * i
    return len(d)


def _alloc_work() -> int:
    out = []
    for i in range(500):
        d = {i: i * i, i + 1: i}
        out.append((i, d.get(i, 0) + len(d)))
    return len(out)


#: reference kernels and their typical times on the baseline host
#: (Python 3.11, 2 vCPUs)
KERNELS = ((_dict_work, 0.6e-3), (_alloc_work, 0.22e-3))


def slowness(k: int) -> float:
    """Time of kernel k (mod the number of kernels) over its typical time.

    The cyclic GC is off while the kernel runs: a collection set off by the
    kernel's allocations would walk the program's heap, and the divisor
    would then grow with the heap of the program it calibrates."""
    work, typical = KERNELS[k % len(KERNELS)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        work()
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    return elapsed / typical


def sample_for(seconds: float) -> list[float]:
    """Time the kernels in turn for about `seconds`; at least once each."""
    out: list[float] = []
    end = time.perf_counter() + seconds
    while len(out) < len(KERNELS) or time.perf_counter() < end:
        out.append(slowness(len(out)))
    return out


def factor(samples: list[float]) -> float:
    """Multiplier from measured to calibrated time, given kernel slowness
    sampled alongside the measurement.  The mean follows the mix of fast and
    slow phases; trimming a tenth at each end drops preemption spikes."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    kept = ordered[cut:len(ordered) - cut]
    return len(kept) / sum(kept)


class Sampler:
    """Times a kernel every INTERVAL_S while active, from a SIGALRM handler,
    so the samples spread evenly over the work they calibrate."""

    def __init__(self):
        self.starts: list[float] = []
        self.samples: list[float] = []
        self.stolen = 0.0  # seconds spent in the handler

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(slowness(len(self.samples)))
        self.starts.append(t0)
        self.stolen += time.perf_counter() - t0

    def around(self, t0: float, t1: float) -> list[float]:
        """Samples that started within WINDOW_S of the interval [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        return self.samples[lo:hi]

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
