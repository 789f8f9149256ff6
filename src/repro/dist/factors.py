"""Distributed factor matrices ``W`` and ``H`` for Algorithm 3 (Figure 2).

Both factors are ``p``-way partitioned over the whole ``pr × pc`` grid, but
along *different* axes and with different nesting:

* ``W (m × k)`` is split by **rows**: grid row ``i`` collectively owns the
  block ``W_i (m/pr × k)``, and within that row, process ``(i, j)`` owns the
  sub-block ``(W_i)_j (m/p × k)`` — the ``j``-th row chunk of ``W_i``.
* ``H (k × n)`` is split by **columns**: grid column ``j`` collectively owns
  ``H_j (k × n/pc)``, and process ``(i, j)`` owns ``(H_j)_i (k × n/p)`` — the
  ``i``-th column chunk of ``H_j``.

The nesting is what makes Algorithm 3's collectives line up exactly:

* an **all-gather over the grid column** (the ``pr`` processes sharing column
  ``j``) concatenates the ``(H_j)_i`` into ``H_j`` (line 5) — provided by
  :meth:`DistributedFactorH.col_block`;
* an **all-gather over the grid row** (the ``pc`` processes sharing row
  ``i``) concatenates the ``(W_i)_j`` into ``W_i`` (line 11) — provided by
  :meth:`DistributedFactorW.row_block`;
* the **reduce-scatters** (lines 7 and 13) split ``(A Hᵀ)_i`` / ``(Wᵀ A)_j``
  with ``block_counts`` over the same communicators, so each rank receives
  precisely the rows/columns of its own sub-block — no redistribution step
  exists anywhere in the algorithm.

Ownership invariant: the ``global_range`` intervals of all ``p`` ranks tile
``[0, m)`` (for ``W``) / ``[0, n)`` (for ``H``) without gaps or overlap, so
concatenating every rank's ``local`` reassembles the global factor exactly
(this is what :func:`repro.core.spmd_loop.assemble_result` does).

An object is built from its layout alone and then given its real block: the
fit seeds ``H``'s and points ``W``'s at the home buffer line 8 fills, so no
placeholder block is ever allocated.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.dist.partition import block_range


def _nested_range(outer: Tuple[int, int], parts: int, index: int) -> Tuple[int, int]:
    """Global range of sub-block ``index`` of ``parts`` within ``outer``."""
    lo, hi = outer
    s0, s1 = block_range(hi - lo, parts, index)
    return lo + s0, lo + s1


class DistributedFactorW:
    """This rank's sub-block ``(W_i)_j`` of the row-partitioned ``W (m × k)``.

    Attributes
    ----------
    local:
        The ``(W_i)_j`` block, shape ``(global_range[1] - global_range[0], k)``:
        ``None`` until the owner assigns it (the fit assigns W's home, which
        the NLS solve of line 8 overwrites every iteration).
    global_range:
        Half-open global *row* range of ``local`` within ``W``.
    block_range_in_row:
        The same range relative to ``W_i`` (used by the reduce-scatter
        counts, which are local to the grid row).
    """

    def __init__(self, grid, m: int, k: int):
        self.grid = grid
        self.m = int(m)
        self.k = int(k)
        i, j = grid.coords
        self.row_block_range = block_range(self.m, grid.pr, i)   # rows of W_i
        self.global_range = _nested_range(self.row_block_range, grid.pc, j)
        lo, hi = self.global_range
        self.block_range_in_row = (lo - self.row_block_range[0], hi - self.row_block_range[0])
        self.local: Optional[np.ndarray] = None

    def row_block(self, out: np.ndarray = None) -> np.ndarray:
        """All-gather ``W_i (m/pr × k)`` over the grid row (line 11).

        Collective.  The row communicator orders ranks by grid column ``j``,
        matching the sub-block order, so a plain concatenation along axis 0
        reassembles ``W_i`` with its rows in global order.  ``out`` (shape
        ``m/pr × k``) receives the gathered block without allocating; when
        ``pc = 1`` the gathered block is ``local`` itself and ``out`` is left
        alone.
        """
        return self.grid.row_comm.allgatherv(self.local, axis=0, out=out)

    def __repr__(self) -> str:
        return (
            f"DistributedFactorW(rank={self.grid.rank}, rows={self.global_range}, "
            f"k={self.k})"
        )


class DistributedFactorH:
    """This rank's sub-block ``(H_j)_i`` of the column-partitioned ``H (k × n)``.

    Attributes
    ----------
    local:
        The ``(H_j)_i`` block, shape ``(k, global_range[1] - global_range[0])``:
        ``None`` until the owner assigns it (the fit seeds it with
        ``init_h_slice``; the NLS solve of line 14 overwrites it every
        iteration).
    global_range:
        Half-open global *column* range of ``local`` within ``H``.
    block_range_in_col:
        The same range relative to ``H_j`` (grid-column-local coordinates).
    """

    def __init__(self, grid, k: int, n: int):
        self.grid = grid
        self.k = int(k)
        self.n = int(n)
        i, j = grid.coords
        self.col_block_range = block_range(self.n, grid.pc, j)   # columns of H_j
        self.global_range = _nested_range(self.col_block_range, grid.pr, i)
        lo, hi = self.global_range
        self.block_range_in_col = (lo - self.col_block_range[0], hi - self.col_block_range[0])
        self.local: Optional[np.ndarray] = None

    def col_block(self, out: np.ndarray = None) -> np.ndarray:
        """All-gather ``H_j (k × n/pc)`` over the grid column (line 5).

        Collective.  The column communicator orders ranks by grid row ``i``,
        matching the sub-block order, so concatenation along axis 1
        reassembles ``H_j`` with its columns in global order.  ``out`` (shape
        ``k × n/pc``) receives the gathered block without allocating; when
        ``pr = 1`` the gathered block is ``local`` itself and ``out`` is left
        alone.
        """
        return self.grid.col_comm.allgatherv(self.local, axis=1, out=out)

    def __repr__(self) -> str:
        return (
            f"DistributedFactorH(rank={self.grid.rank}, cols={self.global_range}, "
            f"k={self.k})"
        )
