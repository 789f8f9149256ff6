"""Serving telemetry: counters, batch-size histogram, latency quantiles.

Everything here is plain-Python and allocation-light — it runs on the event
loop between batches.  :class:`ServeStats` is the single object the
batcher, the HTTP front end and the ``/stats`` endpoint share; its
:meth:`~ServeStats.snapshot` is the JSON the endpoint returns.

Latency quantiles use the *nearest-rank* definition over a bounded ring of
the most recent observations (default 4096): p50/p99 of a live server should
describe recent traffic, not the whole process lifetime.  A server with
several worker processes keeps one :class:`ServeStats` per worker and
answers ``/stats`` with :meth:`ServeStats.merge` of them all.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, Dict, Iterable, List, Optional

__all__ = ["percentile", "LatencyWindow", "ServeStats"]

#: The percentiles ``/stats`` reports for every stage clock.
QUANTILES = (50.0, 99.0)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]); NaN if empty."""
    if not values:
        return float("nan")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math import
    return ordered[int(rank) - 1]


class LatencyWindow:
    """Bounded ring of recent latency observations with quantile queries."""

    def __init__(self, maxlen: Optional[int] = 4096):
        self._ring: Deque[float] = deque(maxlen=maxlen)

    @classmethod
    def union(cls, windows: Iterable["LatencyWindow"]) -> "LatencyWindow":
        """One unbounded window holding every observation of ``windows``."""
        merged = cls(maxlen=None)
        for window in windows:
            merged._ring.extend(window._ring)
        return merged

    def record(self, seconds: float) -> None:
        self._ring.append(float(seconds))

    def quantiles(self) -> Dict[str, float]:
        """The median and 99th percentile, keyed ``p50`` and ``p99``."""
        values = list(self._ring)
        return {f"p{q:g}": percentile(values, q) for q in QUANTILES}


class ServeStats:
    """Shared telemetry of one projection service.

    ``batch_columns`` histograms the *coalesced* batch size (total columns
    per kernel call) — the number that shows whether batching is actually
    coalescing traffic or degenerating to one call per request.  The stage
    clock splits a request's service time: ``queue_wait`` (admission until
    the request is taken into a batch, one sample per request) and ``solve``
    (the wall time of the batched NLS call on the event loop, one sample per
    batch).
    """

    def __init__(self, latency_window: int = 4096):
        self.requests_total = 0
        self.responses_total = 0
        self.columns_total = 0
        self.batches_total = 0
        self.shed_total = 0          # 503s: queue full at admission
        self.deadline_total = 0      # 504s: expired in the queue
        self.validation_errors = 0   # 400s: rejected at admission
        self.model_errors = 0        # 404s: unknown model name
        self.batch_columns: Counter = Counter()
        self.latency = LatencyWindow(latency_window)
        self.queue_wait = LatencyWindow(latency_window)
        self.solve = LatencyWindow(latency_window)
        self.queue_depth = 0         # gauge, maintained by the service

    _SUMMED = ("requests_total", "responses_total", "columns_total", "batches_total",
               "shed_total", "deadline_total", "validation_errors", "model_errors",
               "queue_depth")
    _WINDOWS = ("latency", "queue_wait", "solve")

    @classmethod
    def merge(cls, parts: Iterable["ServeStats"]) -> "ServeStats":
        """The stats of several worker processes as one: counters, the queue
        depth gauge and the batch histogram are summed, and each quantile is
        taken over the union of the workers' windows."""
        parts = list(parts)
        merged = cls()
        for name in cls._SUMMED:
            setattr(merged, name, sum(getattr(part, name) for part in parts))
        for part in parts:
            merged.batch_columns.update(part.batch_columns)
        for name in cls._WINDOWS:
            setattr(merged, name, LatencyWindow.union(getattr(part, name) for part in parts))
        return merged

    # -- recording hooks (called by the service / front end) -----------------
    def record_admitted(self) -> None:
        self.requests_total += 1

    def record_queue_wait(self, seconds: float) -> None:
        self.queue_wait.record(seconds)

    def record_batch(self, n_requests: int, n_columns: int, solve_seconds: float) -> None:
        self.batches_total += 1
        self.responses_total += n_requests
        self.columns_total += n_columns
        self.batch_columns[n_columns] += 1
        self.solve.record(solve_seconds)

    def record_latency(self, seconds: float) -> None:
        self.latency.record(seconds)

    # -- derived views -------------------------------------------------------
    @property
    def mean_batch_columns(self) -> float:
        if self.batches_total == 0:
            return float("nan")
        return self.columns_total / self.batches_total

    def snapshot(self) -> dict:
        """The JSON-able state the ``/stats`` endpoint returns."""
        return {
            "requests_total": self.requests_total,
            "responses_total": self.responses_total,
            "columns_total": self.columns_total,
            "batches_total": self.batches_total,
            "shed_total": self.shed_total,
            "deadline_total": self.deadline_total,
            "validation_errors": self.validation_errors,
            "model_errors": self.model_errors,
            "queue_depth": self.queue_depth,
            "mean_batch_columns": self.mean_batch_columns,
            "batch_columns_histogram": {
                str(size): count
                for size, count in sorted(self.batch_columns.items())
            },
            "latency_seconds": self.latency.quantiles(),
            "queue_wait_seconds": self.queue_wait.quantiles(),
            "solve_seconds": self.solve.quantiles(),
        }
