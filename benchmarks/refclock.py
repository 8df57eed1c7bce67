"""A clock that reads seconds at a fixed reference machine speed.

On a small shared VM the speed of the same single-threaded code drifts by up
to 2x over tens of seconds (on a 2-vCPU Xeon VM one skew orbit took 19 ms in
one 5-second window and 37 ms in another), while the ratio between the
workload and a fixed calibration kernel stayed within about 5%.  So every
`period` seconds a SIGALRM handler runs the kernel below, and the clock
advances each slice of wall time by `CAL_REF_S / kernel time` (median of
the last `WINDOW` kernel runs).  The kernel's own run time is left out, so a
duration on this clock is the time the measured code would take on a
machine where the kernel takes exactly `CAL_REF_S`.

The kernel is the benchmark's own code and does not touch the package, so a
change to the package cannot move it.  Its mix of interpreted float
arithmetic and tiny numpy calls matches the package's hot paths.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from collections import deque

import numpy as np

CAL_REF_S = 2e-3
WINDOW = 3  # kernel runs in the median that sets the speed factor
KERNEL_STEPS = 250  # loop steps in one kernel run (a few ms)


def calibration_kernel() -> float:
    x, acc = 0.1, 0.0
    a = np.array([0.3, 0.7, 0.1])
    for _ in range(KERNEL_STEPS):
        x = (x * 2.0 + 0.3) % 1.0
        acc += math.sin(6.283185307179586 * x)
        d = (a - x) % 1.0
        d[d >= 0.5] -= 1.0
        acc += float(np.linalg.norm(d))
    return acc


class RefClock:
    """Reference-speed seconds; `start()` arms the sampler, `stop()` disarms it.

    Uses SIGALRM and ITIMER_REAL, so only one RefClock may run at a time,
    in the main thread.
    """

    def __init__(self, period: float = 0.1):
        self.period = period
        self._recent = deque(maxlen=WINDOW)
        self.samples = []
        self._state = (0.0, time.perf_counter(), 1.0)  # (ref s, wall mark, factor)
        self._previous = None

    def _calibrate(self) -> float:
        t0 = time.perf_counter()
        calibration_kernel()
        t1 = time.perf_counter()
        self._recent.append(t1 - t0)
        self.samples.append(t1 - t0)
        return t1

    def _tick(self, signum, frame) -> None:
        ref, mark, factor = self._state
        ref += (time.perf_counter() - mark) * factor
        end = self._calibrate()
        # One tuple store, so now() never sees a half-updated state.
        self._state = (ref, end, CAL_REF_S / statistics.median(self._recent))

    def start(self) -> "RefClock":
        self._calibrate()
        end = self._calibrate()
        self._state = (0.0, end, CAL_REF_S / statistics.median(self._recent))
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def now(self) -> float:
        ref, mark, factor = self._state
        return ref + (time.perf_counter() - mark) * factor

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
