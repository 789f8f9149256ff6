"""Shared utilities: errors, validation, seeding, timers, array helpers, CPU count."""

from repro.util.cpus import available_cpus
from repro.util.errors import (
    ReproError,
    ShapeError,
    NonNegativityError,
    CommunicatorError,
)
from repro.util.validation import (
    check_nonnegative,
    check_matrix,
    check_rank,
    is_sparse,
)
from repro.util.seeding import per_rank_seed
from repro.util.timing import WallClock

__all__ = [
    "ReproError",
    "ShapeError",
    "NonNegativityError",
    "CommunicatorError",
    "check_nonnegative",
    "check_matrix",
    "check_rank",
    "is_sparse",
    "per_rank_seed",
    "WallClock",
    "available_cpus",
]
