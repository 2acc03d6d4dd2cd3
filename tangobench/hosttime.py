"""Host-time measurement on a reference-host scale.

The benchmark's host is shared: the same 5k-arrival serve episode takes
anywhere from ~400 ms to ~700 ms depending on what else runs, and the
speed changes within a second as well as over minutes.  While a
``HostTimer`` is open, an interval timer samples the host's speed every
``SAMPLE_INTERVAL_S`` by running a short fixed calibration loop, and
each timed call is scaled to the host speed at which that loop takes
``REFERENCE_CALIBRATION_MS``:

    reported = raw * REFERENCE_CALIBRATION_MS / mean(calibrations)

over the calibrations taken during the call and ``WINDOW_S`` around it.
The sampler's own time is excluded from ``raw``.  A change to the
program moves the raw time and not the calibration, so it moves the
reported time by the same share; a change in host speed moves both and
cancels out.  The raw times are printed alongside for reference.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from typing import Callable, List, Tuple

#: Calibration-loop time of the reference host: reported host times are
#: what the work would take on a host that runs the loop this fast.
REFERENCE_CALIBRATION_MS = 0.8

SAMPLE_INTERVAL_S = 0.1

#: Calibrations this close before or after a call also describe it, so
#: that calls shorter than the sampling interval are scaled too.
WINDOW_S = 0.25


def _calibration_work() -> int:
    """Fixed interpreter-bound work shaped like the program's inner loops
    (dict updates on int keys, string building, a keyed sort) that creates
    almost no objects the cyclic collector tracks, so sampling does not
    move the program's collections."""
    table = {}
    total = 0
    for i in range(3000):
        key = (i * 2654435761) & 0x3FF
        table[key] = table.get(key, 0) + i
        total += len(str(key))
    ranked = sorted(table, key=table.__getitem__)
    return total + ranked[0]


def calibration_ms() -> float:
    # With the collector off, the loop's time does not depend on how many
    # objects the program keeps alive.
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _calibration_work()
        return (time.perf_counter() - start) * 1000.0
    finally:
        if collecting:
            gc.enable()


class HostTimer:
    """Times calls while sampling host speed; a context manager.

    ``measure`` times one call.  After the ``with`` block, ``raw_s``,
    ``scaled_s`` and ``factors`` hold one entry per call.
    """

    def __init__(self) -> None:
        self.raw_s: List[float] = []
        self.scaled_s: List[float] = []
        self.factors: List[float] = []
        self.calibrations_ms: List[float] = []
        self._sample_times: List[float] = []
        self._calls: List[Tuple[float, float]] = []
        self._sampler_s = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.calibrations_ms.append(calibration_ms())
        self._sample_times.append(start)
        self._sampler_s += time.perf_counter() - start

    def __enter__(self) -> "HostTimer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(signal.SIGALRM, None)
        for start, end in self._calls:
            low = bisect.bisect_left(self._sample_times, start - WINDOW_S)
            high = bisect.bisect_right(self._sample_times, end + WINDOW_S)
            # A long call into native code can hold the sampler off;
            # then the nearest calibration stands in.
            window = self.calibrations_ms[low:high]
            if not window:
                window = self.calibrations_ms[max(low - 1, 0) : low + 1]
            self.factors.append(REFERENCE_CALIBRATION_MS * len(window) / sum(window))
        self.scaled_s = [raw * f for raw, f in zip(self.raw_s, self.factors)]

    def measure(self, fn: Callable, *args) -> Tuple[object, int]:
        """Run ``fn(*args)``; returns its result and the call's index."""
        sampler_before = self._sampler_s
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        self.raw_s.append(end - start - (self._sampler_s - sampler_before))
        self._calls.append((start, end))
        return result, len(self.raw_s) - 1
