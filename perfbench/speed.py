"""Host speed meter: turns host seconds into reference seconds.

The host's CPU speed drifts through states up to 2x apart that last
from seconds to tens of minutes, and each vCPU drifts on its own, so
raw host seconds of the same code spread past any useful bound (see
README.md, "Aggregation").  While a timed region runs, a timer signal
samples the host's current speed every ``INTERVAL`` seconds with a
fixed piece of pure-Python work (:func:`probe`) that is part of the
benchmark, not of the program.  If the probe takes ``d(t)`` CPU seconds
at time ``t`` and ``REFERENCE_PROBE_S`` at the reference speed, a region
of ``T`` host seconds did the work of

    T * mean over samples of (REFERENCE_PROBE_S / d(t))

seconds at the reference speed: samples are uniform in time, so the
mean of the speed ratios is the time-average speed over the region.
A program change does not change the probe, so it moves reference
seconds exactly as it moves host seconds on a steady host.  The probe
runs with the garbage collector off, so a program that holds more
objects does not slow it.  Each sample costs about 1 ms, about 1% of
every timed region; that share is part of every reported time.  The
run pins itself to one vCPU (run.py), so the samples come from the CPU
the program runs on.
"""

from __future__ import annotations

import gc
import signal
import time
from typing import List

#: Sampling period of the timer signal, in seconds.
INTERVAL = 0.1
#: The probe's duration at the reference speed: about its duration in
#: the slower host states of a 2-vCPU Xeon VM at 2.0 GHz, where it reads
#: 0.35-0.7 ms.  A fixed constant: only ratios to it matter.
REFERENCE_PROBE_S = 0.0006

_KEYS = [(i * 2654435761) & 1023 for i in range(2000)]
_ADDRESSES = [(i * 40503 + (i >> 3) * 977) & 4095 for i in range(1200)]


def _walk() -> None:
    """Dictionary updates plus a small set-associative LRU walk: the kind
    of work the program's scalar paths do, in the benchmark's own code."""
    counts: dict = {}
    for i, k in enumerate(_KEYS):
        counts[k] = counts.get(k, 0) + i
    sets: List[List[int]] = [[] for _ in range(64)]
    for a in _ADDRESSES:
        ways = sets[a & 63]
        tag = a >> 6
        if tag in ways:
            ways.remove(tag)
        elif len(ways) >= 4:
            ways.pop(0)
        ways.append(tag)


def probe() -> float:
    """CPU seconds one fixed piece of interpreter work takes now: the
    faster of two back-to-back walks, so that the first warms the caches
    the program's own work has just evicted.  Thread CPU time, not wall
    time, so that time the CPU spends on the program's other threads
    (or on another process) while a walk runs does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = time.thread_time()
            _walk()
            best = min(best, time.thread_time() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def speed_ratio(samples: List[float]) -> float:
    """Mean of ``REFERENCE_PROBE_S / d`` over probe durations ``d``."""
    return sum(REFERENCE_PROBE_S / d for d in samples) / len(samples)


class SpeedMeter:
    """Samples :func:`probe` through a region; use as a context manager.

    One sample is taken on entry and one on exit, and the timer signal
    adds one every ``INTERVAL`` seconds in between, so even a short
    region has a speed.  Each sample keeps its ``time.perf_counter()``
    stamp, so a part of the region (one job) gets the speed of its own
    stretch of time.  Only the main thread can own the timer.
    """

    def __init__(self, interval: float = INTERVAL) -> None:
        self.interval = interval
        self.samples: List[float] = []
        self.stamps: List[float] = []
        self._previous = None

    def _sample(self, *_: object) -> None:
        self.stamps.append(time.perf_counter())
        self.samples.append(probe())

    def __enter__(self) -> "SpeedMeter":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample()

    @property
    def ratio(self) -> float:
        """Reference seconds per host second over the region."""
        return speed_ratio(self.samples)

    def ratio_over(self, start: float, end: float) -> float:
        """The speed ratio over ``[start, end]`` (``perf_counter`` times):
        the samples taken inside it plus the last one before it and the
        first one after it, so a job shorter than ``INTERVAL`` has two."""
        stamped = list(zip(self.stamps, self.samples))
        near = ([d for t, d in stamped if t < start][-1:]
                + [d for t, d in stamped if start <= t <= end]
                + [d for t, d in stamped if t > end][:1])
        return speed_ratio(near)
