"""The host's speed, read from a reference kernel timed between a run's operations.

The machines this benchmark runs on change speed under it: an idle 2-CPU VM
read a fixed single-thread Python loop at 10.9 to 16.0 ms in consecutive
20-second windows, and whole ten-run sets moved by 15-30 % from one hour to
the next.  Ten-run inter-quartile ranges of the raw wall-clock metrics reached
0.29 of the median.  Dividing each run's times by this reference, measured in
the same run, brought the worst of them to 0.09 and the shift between two
sets from 18 % to 3 % (README, "Repeatability").

The reference is the geometric mean of two kernels that bracket what the
workloads do: a 384² float64 GEMM (BLAS, caches) and a pure interpreter loop
(the Python the ranks, the server and the BPP column loop spend their time
in).  Neither touches the program under test.
"""

from __future__ import annotations

import math
import statistics

from harness.stats import median_time

#: The reference on the host the workloads were sized on, at its usual speed.
#: Reported times are wall times scaled by NOMINAL_MS / (this run's reference),
#: so on that host at that speed the scale is 1.
NOMINAL_MS = 2.0

_state: dict = {}


def _interpreter_loop() -> int:
    total = 0
    for i in range(40000):
        total += i * i % 7
    return total


def sample() -> float:
    """One reading of the reference, in milliseconds (about 40 ms of work)."""
    import numpy as np

    x = _state.setdefault("x", np.ones((384, 384)))
    return 1e3 * math.sqrt(median_time(lambda: x @ x, 9) * median_time(_interpreter_loop, 5))


def speed_factor(samples) -> float:
    """How much slower than nominal the host ran (1.0 when nothing was sampled)."""
    samples = [s for s in samples if s > 0]
    return statistics.median(samples) / NOMINAL_MS if samples else 1.0
