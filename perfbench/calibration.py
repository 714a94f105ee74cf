"""Machine-speed calibration.

The benchmark runs on shared machines whose speed flips between states
up to 2x apart, several times a second, far more than the changes it
must resolve. `loop()` times a short fixed mix of interpreter and numpy
work that runs no qbounds code. While a workload runs, `Sampler` times it
from a timer signal every PERIOD_S, and each op's time is scaled by
NOMINAL_S over the mean loop time around and during the op. Calibrated
seconds are seconds on a machine where `loop()` takes NOMINAL_S.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
from time import perf_counter

# A round figure near loop()'s median time on the 2-core Intel Xeon VM
# (Python 3.11, numpy 2.4) on which the benchmark was defined.
NOMINAL_S = 0.0002
PERIOD_S = 0.02


def loop() -> float:
    """Seconds for one pass of float math, str conversions, a vectorized
    exp and a block of binomial draws."""
    import numpy as np  # not at import time: set-up is timed up to the warm-up

    enabled = gc.isenabled()
    gc.disable()  # a collection would time the workload's heap, not the machine
    try:
        start = perf_counter()
        acc = 0.0
        for i in range(300):
            x = math.exp(-i * 1e-3) * (i % 7)
            acc += min(1.0, x) + len(str(i))
        acc += float(np.exp(-np.arange(2000.0) * 1e-4).sum())
        draws = np.random.Generator(np.random.Philox(key=1)).binomial(10_000, 0.01, 512)
        acc += float(np.count_nonzero(draws > 100))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def sample(reps: int = 10) -> list[float]:
    return [loop() for _ in range(reps)]


def factor(took: list[float]) -> float:
    """Calibrated seconds per measured second, from loop() times taken
    across the interval measured."""
    return NOMINAL_S * len(took) / math.fsum(took)


class Sampler:
    """Times loop() from a SIGALRM handler every PERIOD_S of wall time.

    Use as a context manager around the timed ops; `scale(start, end)`
    then gives an op's calibration factor and the handler time that fell
    inside it, to be subtracted from its measured time."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # start, loop, handler seconds

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        loop()  # the first pass runs on caches the workload left cold
        took = loop()
        self.samples.append((start, took, perf_counter() - start))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.sort()  # a tick that interrupted a tick appended first
        self.starts = [sample[0] for sample in self.samples]
        self.took = [sample[1] for sample in self.samples]
        self.spent = [sample[2] for sample in self.samples]

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """(calibrated seconds per measured second, seconds of handler time)
        for an op that ran from start to end: the samples taken during
        it and the one on each side."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        around = self.took[max(0, lo - 1):hi + 1]
        if not around:
            return 1.0, 0.0
        return factor(around), math.fsum(self.spent[lo:hi])
