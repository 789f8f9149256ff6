"""Processor grids (paper §5, Figure 2).

HPC-NMF distributes the data matrix ``A`` over a ``pr × pc`` grid of
processes.  Process ``(i, j)`` owns the block ``A_ij`` of size
``m/pr × n/pc``; the factor ``W`` is distributed by rows (block ``W_i`` on
grid row ``i``, sub-block ``(W_i)_j`` on process ``(i, j)``) and ``H`` by
columns (block ``H_j`` on grid column ``j``, sub-block ``(H_j)_i`` on process
``(i, j)``).

Grid selection follows the paper exactly (§5):

* if ``m/p > n`` (very tall and skinny), use the 1D grid ``pr = p, pc = 1``
  (bandwidth cost ``O(nk)``);
* otherwise choose ``pr ≈ sqrt(m p / n)`` and ``pc ≈ sqrt(n p / m)`` so that
  ``m/pr ≈ n/pc ≈ sqrt(mn/p)`` (bandwidth cost ``O(sqrt(m n k² / p))``),
  restricted to factorizations of ``p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.comm.communicator import Comm
from repro.util.errors import CommunicatorError


def factor_pairs(p: int) -> List[Tuple[int, int]]:
    """All (pr, pc) with pr*pc == p, pr and pc positive integers.

    This is the planner's search space: :mod:`repro.plan` scores the cost
    model over every pair and :func:`choose_grid` must coincide with that
    brute-force argmin (property-tested in ``tests/plan/test_planner.py``).
    """
    pairs = []
    for pr in range(1, p + 1):
        if p % pr == 0:
            pairs.append((pr, p // pr))
    return pairs


def choose_grid(m: int, n: int, p: int) -> Tuple[int, int]:
    """Choose the processor grid shape (pr, pc) per the rule of §5.

    Returns the factorization of ``p`` that makes the local blocks closest to
    square in the scaled sense ``m/pr ≈ n/pc``, except in the tall-and-skinny
    regime ``m/p > n`` where the paper prescribes a 1D grid ``(p, 1)``.

    >>> choose_grid(6, 6, 4)
    (2, 2)
    >>> choose_grid(10_000, 10, 4)    # m/p = 2500 > n = 10 -> 1D
    (4, 1)
    """
    if p < 1:
        raise CommunicatorError(f"number of processes must be >= 1, got {p}")
    if m <= 0 or n <= 0:
        raise CommunicatorError(f"matrix dimensions must be positive, got {m}x{n}")
    if m / p > n:
        return (p, 1)
    if n / p > m:
        return (1, p)
    # Pick the factor pair minimizing the communication proxy m/pr + n/pc,
    # which is minimized when m/pr == n/pc (see §5's bandwidth expression
    # beta * (m k / pr + n k / pc)).
    best: Optional[Tuple[int, int]] = None
    best_cost = math.inf
    for pr, pc in factor_pairs(p):
        cost = m / pr + n / pc
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = (pr, pc)
    assert best is not None
    return best


@dataclass(frozen=True)
class GridShape:
    """A processor grid shape with convenience accessors."""

    pr: int
    pc: int

    @property
    def size(self) -> int:
        return self.pr * self.pc

    def coords(self, rank: int) -> Tuple[int, int]:
        """Map a linear rank to (row, col) coordinates (row-major order)."""
        if not 0 <= rank < self.size:
            raise CommunicatorError(f"rank {rank} out of range for grid {self.pr}x{self.pc}")
        return divmod(rank, self.pc)


class ProcessGrid:
    """A ``pr × pc`` Cartesian grid over an existing communicator.

    Builds the row communicator (all ``pc`` processes with the same grid row
    ``i``, which carries the ``W`` collectives of Algorithm 3: the all-gather
    of ``W_i`` and the reduce-scatter of ``(A Hᵀ)_i``) and the column
    communicator (the ``pr`` processes with the same grid column ``j``, which
    carries the ``H`` collectives: the all-gather of ``H_j`` and the
    reduce-scatter of ``(Wᵀ A)_j``).  The factor sub-blocks these collectives
    produce and consume live in :mod:`repro.dist.factors`.

    Parameters
    ----------
    comm:
        World communicator whose size must equal ``pr * pc``.
    pr, pc:
        Grid dimensions.  Row-major rank placement: rank ``r`` sits at
        ``(r // pc, r % pc)``.
    """

    def __init__(self, comm: Comm, pr: int, pc: int):
        if pr < 1 or pc < 1:
            raise CommunicatorError(f"grid dimensions must be >= 1, got {pr}x{pc}")
        if pr * pc != comm.size:
            raise CommunicatorError(
                f"grid {pr}x{pc} requires {pr * pc} processes, communicator has {comm.size}"
            )
        self.comm = comm
        self.shape = GridShape(pr, pc)
        self.row_index, self.col_index = self.shape.coords(comm.rank)
        # Row communicator: fixed grid row, varying column (size pc).
        self.row_comm = comm.split(color=self.row_index, key=self.col_index)
        # Column communicator: fixed grid column, varying row (size pr).
        self.col_comm = comm.split(color=self.col_index, key=self.row_index)

    # -- convenience -------------------------------------------------------
    @property
    def pr(self) -> int:
        return self.shape.pr

    @property
    def pc(self) -> int:
        return self.shape.pc

    @property
    def coords(self) -> Tuple[int, int]:
        return (self.row_index, self.col_index)
