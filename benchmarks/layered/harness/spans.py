"""In-memory spans around the harness's calls into each layer.

A span is ``{id, parent, layer, name, workload, start, end}`` with times from
``time.perf_counter()`` (CLOCK_MONOTONIC on Linux, so spans recorded in
different processes of one run share a time base).  Spans stay in memory and
are written once, as Chrome-trace JSON, when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class SpanRecorder:
    """Collects spans; ``with rec.span(layer, name)`` nests by thread."""

    def __init__(self, workload: str, prefix: str = "s", enabled: bool = True):
        self.workload = workload
        self.prefix = prefix
        self.enabled = enabled
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._count = 0

    def _next_id(self) -> str:
        with self._lock:
            self._count += 1
            return f"{self.prefix}{self._count}"

    def _store(self, span_id, parent, layer, name, start, end) -> None:
        span = {
            "id": span_id,
            "parent": parent,
            "layer": layer,
            "name": name,
            "workload": self.workload,
            "start": start,
            "end": end,
        }
        with self._lock:
            self.spans.append(span)

    def add(
        self, layer: str, name: str, start: float, end: float, parent: Optional[str] = None
    ) -> Optional[str]:
        """Record a span whose times were taken elsewhere (e.g. by an observer)."""
        if not self.enabled:
            return None
        span_id = self._next_id()
        self._store(span_id, parent, layer, name, start, end)
        return span_id

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[Optional[str]]:
        """Time the body and yield the span's id.

        The enclosing ``span`` of this thread becomes the parent, so one
        identifier chain runs from a fit or a request down to its parts.
        """
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = self._next_id()  # reserved first: children opened in the body name it
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self._store(span_id, parent, layer, name, start, end)


class IterationStamps:
    """An ``IterationObserver`` that timestamps every outer iteration.

    SPMD loops call observers on rank 0, which on the process and socket
    backends is a forked child: the stamps are written to ``path`` when the
    last iteration reports, and the harness reads them back after the fit.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._stamps: List[float] = []
        self._last = 0

    def on_start(self, config, variant) -> None:
        self._last = config.max_iters - 1
        self._stamps = [time.perf_counter()]

    def on_iteration(self, event) -> None:
        self._stamps.append(time.perf_counter())
        if event.iteration >= self._last:
            self.path.write_text(json.dumps(self._stamps))

    def on_finish(self, result) -> None:
        pass

    def read(self) -> List[float]:
        """The stamps of the last observed fit (empty if none was written)."""
        if not self.path.exists():
            return []
        stamps = json.loads(self.path.read_text())
        self.path.unlink()
        return stamps


def _covered(intervals: List[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Self time per ``layer/name``: span duration minus the part its children cover."""
    children: Dict[str, List[tuple]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: Dict[str, float] = {}
    for s in spans:
        clipped = [
            (max(a, s["start"]), min(b, s["end"]))
            for a, b in children.get(s["id"], [])
            if min(b, s["end"]) > max(a, s["start"])
        ]
        own = (s["end"] - s["start"]) - _covered(clipped)
        key = f"{s['layer']}/{s['name']}"
        out[key] = out.get(key, 0.0) + own
    return out


def write_chrome_trace(spans: List[dict], path: Path) -> None:
    """Write ``spans`` in the Chrome trace-event format (opens in Perfetto)."""
    origin = min((s["start"] for s in spans), default=0.0)
    tids: Dict[str, int] = {}
    events = []
    for s in spans:
        # One track per span-id prefix (one per harness process/thread).
        track = s["id"].rstrip("0123456789")
        tid = tids.setdefault(track, len(tids) + 1)
        events.append(
            {
                "name": s["name"],
                "cat": s["layer"],
                "ph": "X",
                "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "pid": 1,
                "tid": tid,
                "args": {"id": s["id"], "parent": s["parent"], "workload": s["workload"]},
            }
        )
    events.sort(key=lambda e: e["ts"])
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
