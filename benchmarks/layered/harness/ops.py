"""Operations attempted and failed, and the memory high-water mark."""

from __future__ import annotations

import resource
from typing import List, Optional


class OpLog:
    """Counts operations; a failed correctness or leak check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, what: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def merge(self, child_ops: Optional[dict], who: str) -> None:
        """Add the counts a child reported through :meth:`as_dict`."""
        if child_ops:
            self.attempted += child_ops["attempted"]
            self.failed += child_ops["failed"]
            self.problems += [f"{who}: {p}" for p in child_ops["problems"]]

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems}


def peak_rss_mb() -> float:
    """Max resident set of this process and of any child it has waited for, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB
