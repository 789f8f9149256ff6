"""Per-task time breakdown profiler (paper §6.3).

The paper reports per-iteration time split into six tasks:

* **MM** — local matrix multiplication with the local data block,
* **NLS** — local nonnegative least squares solves (BPP),
* **Gram** — local contribution to the k×k Gram matrices,
* **All-Gather** — collecting factor blocks,
* **Reduce-Scatter** — summing and distributing the matmul results,
* **All-Reduce** — summing the Gram matrices.

:class:`Profiler` accumulates wall-clock time per category; the parallel
algorithms wrap each step in ``with profiler.task(TaskCategory.MM): ...``.
:class:`TimeBreakdown` is the immutable result attached to
:class:`repro.core.result.NMFResult`, in the same six categories Figure 3
stacks.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping

from repro.util.timing import WallClock


class TaskCategory(str, enum.Enum):
    """The six per-iteration task categories of Figure 3, plus bookkeeping.

    The three collective categories (``ALL_GATHER``/``REDUCE_SCATTER``/
    ``ALL_REDUCE``) are time the rank spent inside a blocking collective,
    which is always on its critical path.
    """

    MM = "MM"
    NLS = "NLS"
    GRAM = "Gram"
    ALL_GATHER = "AllGather"
    REDUCE_SCATTER = "ReduceScatter"
    ALL_REDUCE = "AllReduce"
    OTHER = "Other"

    @classmethod
    def figure_order(cls) -> list["TaskCategory"]:
        """Category order used in the paper's stacked bars (bottom to top)."""
        return [cls.NLS, cls.MM, cls.GRAM, cls.ALL_GATHER, cls.REDUCE_SCATTER, cls.ALL_REDUCE]


@dataclass(frozen=True)
class TimeBreakdown:
    """Immutable per-category seconds, plus helpers used by the reports."""

    seconds: Mapping[str, float]

    @property
    def total(self) -> float:
        return float(sum(self.seconds.values()))

    @property
    def computation(self) -> float:
        return sum(
            self.seconds.get(c.value, 0.0)
            for c in (TaskCategory.MM, TaskCategory.NLS, TaskCategory.GRAM)
        )

    @property
    def communication(self) -> float:
        return sum(
            self.seconds.get(c.value, 0.0)
            for c in (
                TaskCategory.ALL_GATHER,
                TaskCategory.REDUCE_SCATTER,
                TaskCategory.ALL_REDUCE,
            )
        )

    def get(self, category: TaskCategory | str) -> float:
        key = category.value if isinstance(category, TaskCategory) else str(category)
        return float(self.seconds.get(key, 0.0))

    def scaled(self, factor: float) -> "TimeBreakdown":
        return TimeBreakdown({k: v * factor for k, v in self.seconds.items()})

    def __add__(self, other: "TimeBreakdown") -> "TimeBreakdown":
        keys = set(self.seconds) | set(other.seconds)
        return TimeBreakdown(
            {k: self.seconds.get(k, 0.0) + other.seconds.get(k, 0.0) for k in keys}
        )

    def as_dict(self) -> Dict[str, float]:
        return dict(self.seconds)

    @classmethod
    def zeros(cls) -> "TimeBreakdown":
        return cls({c.value: 0.0 for c in TaskCategory.figure_order()})

    @classmethod
    def from_parts(cls, **parts: float) -> "TimeBreakdown":
        """Build a breakdown from keyword parts named after the categories.

        >>> TimeBreakdown.from_parts(MM=1.0, NLS=0.5).total
        1.5
        """
        valid = {c.value for c in TaskCategory}
        unknown = set(parts) - valid
        if unknown:
            raise KeyError(f"unknown task categories: {sorted(unknown)}")
        return cls(dict(parts))

    @classmethod
    def from_saved(cls, seconds: Mapping[str, float]) -> "TimeBreakdown":
        """A saved breakdown, keeping only the categories this version knows.

        Artifacts saved before collectives completed at issue also book a
        ``HiddenComm`` category; like unknown config keys, it is dropped.
        """
        valid = {c.value for c in TaskCategory}
        return cls({k: v for k, v in seconds.items() if k in valid})


@dataclass
class Profiler:
    """Accumulates wall-clock seconds per :class:`TaskCategory`."""

    clock: WallClock = field(default_factory=WallClock)
    _seconds: Dict[str, float] = field(default_factory=dict)
    _calls: Dict[str, int] = field(default_factory=dict)

    @contextmanager
    def task(self, category: TaskCategory) -> Iterator[None]:
        start = self.clock.now()
        try:
            yield
        finally:
            elapsed = self.clock.now() - start
            key = category.value
            self._seconds[key] = self._seconds.get(key, 0.0) + elapsed
            self._calls[key] = self._calls.get(key, 0) + 1

    @contextmanager
    def collective(self, category: TaskCategory, comm) -> Iterator[None]:
        """:meth:`task` around a collective over ``comm``.

        A collective over one rank hands back its input: it moves nothing and
        the ledger books nothing, so it is not timed either.  Algorithm 1
        (Algorithm 3 on a 1 × 1 grid) therefore reports no communication, and
        a ``pr × 1`` grid none on its row communicator.
        """
        if comm.size == 1:
            yield
            return
        with self.task(category):
            yield

    def add(self, category: TaskCategory, seconds: float) -> None:
        """Add pre-measured seconds under ``category``."""
        key = category.value
        self._seconds[key] = self._seconds.get(key, 0.0) + seconds
        self._calls[key] = self._calls.get(key, 0) + 1

    def seconds(self, category: TaskCategory) -> float:
        return self._seconds.get(category.value, 0.0)

    def calls(self, category: TaskCategory) -> int:
        return self._calls.get(category.value, 0)

    def snapshot(self) -> TimeBreakdown:
        return TimeBreakdown(dict(self._seconds))


def max_over_ranks(breakdowns: list[TimeBreakdown]) -> TimeBreakdown:
    """Critical-path combination: per category, the max over ranks.

    The paper reports per-iteration times of the slowest processor (the
    parallel running time); when the SPMD engine returns one breakdown per
    rank we combine them category-wise with max.
    """
    if not breakdowns:
        return TimeBreakdown.zeros()
    keys = set()
    for b in breakdowns:
        keys |= set(b.seconds)
    return TimeBreakdown({k: max(b.seconds.get(k, 0.0) for b in breakdowns) for k in keys})
