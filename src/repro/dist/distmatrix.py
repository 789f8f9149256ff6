"""Distributed data matrices: the 2D-blocked ``A_ij`` and the doubly 1D-blocked ``A_i``/``A^i``.

Two layouts cover the paper's two parallel algorithms:

* :class:`DistMatrix2D` — Algorithm 3's layout (Figure 2): process ``(i, j)``
  of a ``pr × pc`` grid owns the single block ``A_ij`` of size roughly
  ``m/pr × n/pc``.  The data matrix is stored exactly once and is **never
  communicated**; this is what makes HPC-NMF's communication volume
  independent of ``nnz(A)``.
* :class:`DoublePartitioned1D` — Algorithm 2's layout: rank ``i`` of ``p``
  owns a row block ``A_i (m/p × n)`` *and* a column block ``A^i (m × n/p)``
  (the data is stored twice), because Naive-Parallel-NMF multiplies against
  ``A`` from both sides with fully replicated factors.

Both accept dense ndarrays and scipy sparse matrices; the block boundaries
come from :mod:`repro.dist.partition`, so they agree with the factor layout
in :mod:`repro.dist.factors` and with the communicator's default
reduce-scatter counts.

Every rank builds its :class:`DistMatrix2D` with
:meth:`DistMatrix2D.from_global`, slicing its block out of a globally readable
``A`` (exactly how an MPI code would read its block from a shared file).
Where the block lives follows the input: a dense block cut from a file-backed
``A`` (an ``np.memmap``, or a view of one) is itself file-backed, so an ``A``
larger than RAM streams through the fit block by block.  The paper's per-rank
generation of its synthetic inputs (§6.1) is a documented direction, not code:
see ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import tempfile
from typing import Tuple

import numpy as np

from repro.dist.partition import block_range
from repro.util.validation import is_sparse


def _file_backed(A) -> bool:
    """True when dense ``A`` is an ``np.memmap`` or a view of one.

    ``np.asarray`` (as in :func:`repro.util.validation.check_matrix`) drops
    the subclass, but the map stays on the ``.base`` chain.
    """
    while isinstance(A, np.ndarray):
        if isinstance(A, np.memmap):
            return True
        A = A.base
    return False


def _on_temp_memmap(block: np.ndarray) -> np.memmap:
    """Copy a non-empty dense block onto an ``np.memmap`` over a temp file.

    The OS pages the block in and out on demand, so the resident footprint
    is bounded by the loop's panel-by-panel access pattern.
    """
    # The mapping holds the pages; unlinking now (TemporaryFile) means no
    # on-disk residue survives the array, even on a crash, and closing the
    # descriptor right away avoids fd exhaustion with many blocks — on
    # POSIX an established mapping outlives its file descriptor.
    with tempfile.TemporaryFile(prefix="repro-block-") as f:
        mapped = np.memmap(f, dtype=block.dtype, mode="w+", shape=block.shape)
    mapped[...] = block
    mapped.flush()
    return mapped


def _local_norm_squared(block) -> float:
    """Squared Frobenius norm of one local block (dense or sparse)."""
    if is_sparse(block):
        data = block.data
        return float(data @ data) if data.size else 0.0
    return float(np.vdot(block, block))


class DistMatrix2D:
    """The block ``A_ij`` of a globally ``m × n`` matrix on a ``pr × pc`` grid.

    Instances are per-rank SPMD objects: every rank of the grid holds one
    ``DistMatrix2D`` describing *its own* block plus the global metadata
    needed to reason about the whole matrix (shape, index ranges).

    Attributes
    ----------
    grid:
        The owning :class:`~repro.comm.grid.ProcessGrid`.
    block:
        This rank's local block (dense ndarray or scipy sparse matrix) of
        shape ``(row_range[1] - row_range[0], col_range[1] - col_range[0])``.
    row_range, col_range:
        Half-open global index ranges ``[lo, hi)`` of the rows/columns this
        rank owns: ``block == A[row_range[0]:row_range[1], col_range[0]:col_range[1]]``.
    global_shape:
        The global ``(m, n)``.
    """

    def __init__(
        self,
        grid,
        block,
        row_range: Tuple[int, int],
        col_range: Tuple[int, int],
        global_shape: Tuple[int, int],
    ):
        if is_sparse(block):
            # Canonicalise: a block sliced by from_global out of a
            # non-canonical CSR ``A`` may carry duplicate coordinates, which
            # would corrupt nnz counts and the Frobenius norm
            # (data @ data assumes one entry per position).  CSR is also the
            # fast format for the local matmuls; both steps are no-ops for
            # already-canonical CSR blocks.
            block = block.tocsr()
            block.sum_duplicates()
        self.grid = grid
        self.block = block
        self.row_range = row_range
        self.col_range = col_range
        self.global_shape = (int(global_shape[0]), int(global_shape[1]))

    # -- construction -------------------------------------------------------
    @classmethod
    def from_global(cls, grid, A) -> "DistMatrix2D":
        """Slice this rank's ``A_ij`` out of a globally readable matrix.

        Nothing is communicated: in the SPMD model every rank calls this with
        the same ``A`` and keeps only its own block (exactly how an MPI code
        would read its block from a shared file).  The block's storage follows
        ``A``'s: a dense block of a file-backed ``A`` (an ``np.memmap`` or a
        view of one) is copied once onto an ``np.memmap`` over an unlinked
        temporary file; any other block is held in memory.  Zero-size blocks
        (more ranks than rows) stay in memory: they hold nothing to page, and
        older numpy cannot map zero bytes.  The bytes are the same either
        way.
        """
        m, n = A.shape
        i, j = grid.coords
        row_range, col_range = block_range(m, grid.pr, i), block_range(n, grid.pc, j)
        r0, r1 = row_range
        c0, c1 = col_range
        if is_sparse(A):
            # Normalise to CSR first: COO/DIA/BSR inputs don't support slicing.
            block = A.tocsr()
            # A block that is the whole canonical matrix (a 1 × 1 grid) is
            # kept as it is; any other is sliced into a copy, so the caller's
            # matrix is never canonicalised in place by __init__.
            if (r1 - r0, c1 - c0) != (m, n) or not block.has_canonical_format:
                block = block[r0:r1, c0:c1]
        else:
            block = np.asarray(A)[r0:r1, c0:c1]
            if block.size and _file_backed(A):
                block = _on_temp_memmap(block)
            else:
                block = np.ascontiguousarray(block)
        return cls(grid, block, row_range, col_range, (m, n))

    # -- properties ---------------------------------------------------------
    @property
    def is_sparse(self) -> bool:
        """True when the local block is a scipy sparse matrix."""
        return is_sparse(self.block)

    # -- collective operations ---------------------------------------------
    def frobenius_norm_squared(self) -> float:
        """Global ``||A||_F²`` via an all-reduce of the local contributions.

        Collective: every rank of the grid must call it.  Used once during
        setup to normalise the objective (the Gram-trick error computation
        needs ``||A||²`` but never ``A`` itself).
        """
        return self.grid.comm.allreduce_scalar(_local_norm_squared(self.block))

    def __repr__(self) -> str:
        kind = "sparse" if self.is_sparse else "dense"
        return (
            f"DistMatrix2D(rank={self.grid.rank}, coords={self.grid.coords}, "
            f"rows={self.row_range}, cols={self.col_range}, {kind})"
        )


class DoublePartitioned1D:
    """Rank ``i``'s row block ``A_i`` and column block ``A^i`` for Algorithm 2.

    Naive-Parallel-NMF needs ``A_i Hᵀ`` (row block times the gathered ``H``)
    and ``W ᵀA^i`` (gathered ``W`` times the column block), so the data is
    deliberately stored twice — one of the inefficiencies HPC-NMF removes.

    Attributes
    ----------
    row_range, col_range:
        Global half-open ranges of the owned rows / columns.
    row_block:
        ``A[row_range[0]:row_range[1], :]`` — shape ``(m/p, n)``.
    col_block:
        ``A[:, col_range[0]:col_range[1]]`` — shape ``(m, n/p)``.
    """

    def __init__(self, rank: int, p: int, row_range, col_range, row_block, col_block,
                 global_shape: Tuple[int, int]):
        self.rank = int(rank)
        self.p = int(p)
        self.row_range = row_range
        self.col_range = col_range
        self.row_block = row_block
        self.col_block = col_block
        self.global_shape = (int(global_shape[0]), int(global_shape[1]))

    @classmethod
    def from_global(cls, rank: int, p: int, A) -> "DoublePartitioned1D":
        """Slice rank ``rank``-of-``p``'s row and column blocks out of ``A``."""
        m, n = A.shape
        row_range = block_range(m, p, rank)
        col_range = block_range(n, p, rank)
        r0, r1 = row_range
        c0, c1 = col_range
        if is_sparse(A):
            A = A.tocsr()   # COO/DIA/BSR inputs don't support slicing
            if not A.has_canonical_format:
                # Same duplicate-entry hazard DistMatrix2D.__init__ guards
                # against: naive.py computes ||A||² as data @ data on the row
                # block.  Copy first so the caller's matrix is not mutated.
                A = A.copy()
                A.sum_duplicates()
            # Both blocks stay CSR: line 12's kernel reads the column block's
            # column panels (repro.core.local_ops), as it does A_ij's.
            row_block = A[r0:r1, :]
            col_block = A[:, c0:c1]
        else:
            A = np.asarray(A)
            row_block = np.ascontiguousarray(A[r0:r1, :])
            col_block = np.ascontiguousarray(A[:, c0:c1])
        return cls(rank, p, row_range, col_range, row_block, col_block, (m, n))

    @property
    def is_sparse(self) -> bool:
        """True when the blocks are scipy sparse matrices."""
        return is_sparse(self.row_block)

    def __repr__(self) -> str:
        kind = "sparse" if self.is_sparse else "dense"
        return (
            f"DoublePartitioned1D(rank={self.rank}/{self.p}, rows={self.row_range}, "
            f"cols={self.col_range}, {kind})"
        )
