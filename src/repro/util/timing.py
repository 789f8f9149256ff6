"""The wall clock under the per-task profiler.

The profiler in :mod:`repro.comm.profiler` accumulates time into the six task
categories of the paper's §6.3 (MM, NLS, Gram, All-Gather, Reduce-Scatter,
All-Reduce); :class:`WallClock` is its clock, a class so tests can substitute
a fake one.
"""

from __future__ import annotations

import time


class WallClock:
    """Monotonic wall-clock source (wrapper to allow fake clocks in tests)."""

    def now(self) -> float:
        return time.perf_counter()

