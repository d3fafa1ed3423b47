"""Host speed probe: scales measured seconds to a reference host speed.

The benchmark runs on shared virtual machines whose vCPUs speed up and
slow down by a quarter or more over minutes as other tenants come and
go, with no stolen time visible to the guest.  A fixed program unit then
reads 24 s in one run and 32 s a few minutes later.  No run length
averages that away, because the host drifts on the scale of whole runs.

:class:`HostProbe` measures the host's speed during the very seconds the
program runs.  Every :data:`PERIOD_S` a ``SIGALRM`` handler in the
benchmark's main thread runs one of two small fixed kernels (a few small
numpy operations, and reads of a large dict at scattered keys;
alternately) and records the CPU seconds it took.  Neither kernel
touches the program.  Over an interval, the *slowdown* is the geometric
mean, over the two kernels, of their mean CPU time in the interval
divided by their :data:`REFERENCE_S` time.  Seconds at reference speed
are wall seconds, less the probe's own time, divided by that slowdown.

Kernel time is CPU time of the benchmark's thread, so time spent waiting
for a CPU (the service-mix daemon's workers compete for both vCPUs) does
not count as a slow host.  The probe costs about 2% of each interval
and its dict about 20 MB of resident memory.
"""

from __future__ import annotations

import math
import random
import signal
import time
from typing import Callable, List, Optional, Tuple

import numpy as np

#: Seconds between two probe ticks.
PERIOD_S = 0.05

_RNG = np.random.default_rng(20120612)
_BUFFER = np.empty(64)
#: A dict far larger than the L2 cache, read at 1,500 scattered keys.
_TABLE = {(i * 7919) % 1_000_003: i for i in range(100_000)}
_KEYS = list(_TABLE)[::66][:1500]
random.Random(3).shuffle(_KEYS)


def numpy_kernel() -> None:
    for _ in range(40):
        draws = _RNG.random(64)
        np.cumsum(draws, out=_BUFFER)
        (draws < 0.5).sum()


def dict_kernel() -> int:
    total = 0
    for key in _KEYS:
        total += _TABLE[key]
    return total


#: The two kernels.  Of the five tried (a pure-Python integer loop,
#: small and medium numpy operations, an 8 MB numpy gather, and the
#: scattered dict reads), these two tracked the engine's run time best
#: over the host's fast and slow minutes.  The dict reads slow down the
#: most when the host is busy, and so does the engine.
KERNELS: Tuple[Callable[[], object], ...] = (numpy_kernel, dict_kernel)
#: CPU seconds of each kernel at reference speed: their medians on a
#: 2-vCPU Xeon VM (Python 3.11, numpy 2.4) in a quiet minute.
REFERENCE_S: Tuple[float, ...] = (0.00045, 0.0011)


class HostProbe:
    """Samples the host's speed on a timer while it is running."""

    def __init__(self) -> None:
        #: ``(tick end, kernel index, kernel CPU s, tick wall s)``.
        self.samples: List[Tuple[float, int, float, float]] = []
        self._previous = None

    def __enter__(self) -> "HostProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        index = len(self.samples) % len(KERNELS)
        wall = time.perf_counter()
        cpu = time.thread_time()
        KERNELS[index]()
        cpu = time.thread_time() - cpu
        end = time.perf_counter()
        self.samples.append((end, index, cpu, end - wall))

    def _within(self, start: float, end: float):
        return [s for s in self.samples if start <= s[0] <= end]

    def slowdown(self, start: float, end: float) -> Optional[float]:
        """Host slowdown over ``[start, end]`` (``perf_counter`` times);
        ``None`` if some kernel never ran in it."""
        samples = self._within(start, end)
        logs = []
        for index, reference in enumerate(REFERENCE_S):
            times = [s[2] for s in samples if s[1] == index]
            if not times:
                return None
            logs.append(math.log(sum(times) / len(times) / reference))
        return math.exp(sum(logs) / len(logs))

    def reference_seconds(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` at reference speed, probe time
        excluded.  Falls back to the raw interval if it held no ticks."""
        own = sum(s[3] for s in self._within(start, end))
        slowdown = self.slowdown(start, end) or 1.0
        return (end - start - own) / slowdown
