"""Sample summaries (median, quartiles, supported tail percentile) and a median timer."""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, Dict, Optional, Sequence

#: candidate tail percentiles, highest first
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0]) if values else float("nan")
        return v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return float(ordered[rank - 1])


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with at least ten samples beyond it."""
    for q in _TAILS:
        if n * (100.0 - q) / 100.0 >= 10.0:
            return q
    return None


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, supported tail percentile and sample count."""
    values = [float(v) for v in values]
    if not values:
        return {"n": 0, "median": float("nan"), "q1": float("nan"), "q3": float("nan")}
    q1, q3 = quartiles(values)
    out = {"n": len(values), "median": float(statistics.median(values)), "q1": q1, "q3": q3}
    tail = tail_percentile(len(values))
    if tail is not None:
        out["tail_q"] = tail
        out["tail"] = percentile(values, tail)
    return out


def median_time(fn: Callable[[], object], repeats: int, warmup: int = 1) -> float:
    """Median wall seconds of ``fn()`` over ``repeats`` calls after ``warmup`` discarded ones."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)
