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

Construction paths for :class:`DistMatrix2D`:

* :meth:`DistMatrix2D.from_global` — every rank slices its block out of a
  globally readable ``A`` (the convenient path for tests and small runs);
* :meth:`DistMatrix2D.from_block_generator` — each rank *generates* only its
  own block and the global matrix never exists anywhere (the scalable path;
  the paper generates its synthetic data exactly this way, each process with
  its own seed).
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.dist.partition import block_range
from repro.dist.storage import materialize_block
from repro.util.errors import PartitionError, ShapeError
from repro.util.validation import is_sparse


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
        expected = (row_range[1] - row_range[0], col_range[1] - col_range[0])
        if tuple(block.shape) != expected:
            raise ShapeError(
                f"local block has shape {tuple(block.shape)}, "
                f"but ranges {row_range} x {col_range} require {expected}"
            )
        if is_sparse(block):
            # Canonicalise: generator-supplied blocks may carry duplicate
            # coordinates (COO built with replacement, non-canonical CSR),
            # which would corrupt nnz counts and the Frobenius norm
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
    def local_ranges(cls, grid, m: int, n: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """The (row_range, col_range) of the calling rank's block ``A_ij``."""
        i, j = grid.coords
        return block_range(m, grid.pr, i), block_range(n, grid.pc, j)

    @classmethod
    def from_global(cls, grid, A, storage: str = "memory") -> "DistMatrix2D":
        """Slice this rank's ``A_ij`` out of a globally readable matrix.

        Nothing is communicated: in the SPMD model every rank calls this with
        the same ``A`` and keeps only its own block (exactly how an MPI code
        would read its block from a shared file).  ``storage`` selects where
        the local block lives (see :mod:`repro.dist.storage`): ``"memory"``
        keeps it resident, ``"memmap"`` rehomes dense blocks onto an
        ``np.memmap``-backed temporary file for out-of-core operation.
        """
        m, n = A.shape
        row_range, col_range = cls.local_ranges(grid, m, n)
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
            block = np.ascontiguousarray(np.asarray(A)[r0:r1, c0:c1])
        block = materialize_block(block, storage)
        return cls(grid, block, row_range, col_range, (m, n))

    @classmethod
    def from_block_generator(
        cls,
        grid,
        global_shape: Tuple[int, int],
        generator: Callable,
        storage: str = "memory",
    ) -> "DistMatrix2D":
        """Build the local block with ``generator(row_range, col_range, rank)``.

        The scalable path: the global matrix is *virtual* and only its blocks
        ever exist, one per rank.  The generator must return a block of shape
        ``(row_range[1] - row_range[0], col_range[1] - col_range[0])`` (dense
        or sparse); a wrong shape raises :class:`~repro.util.errors.ShapeError`.
        ``storage="memmap"`` spills the generated dense block to an
        ``np.memmap``-backed temporary file (see :mod:`repro.dist.storage`),
        bounding resident memory at webbase scale.
        """
        m, n = int(global_shape[0]), int(global_shape[1])
        if m <= 0 or n <= 0:
            raise PartitionError(f"global shape must be positive, got {m}x{n}")
        row_range, col_range = cls.local_ranges(grid, m, n)
        block = generator(row_range, col_range, grid.rank)
        block = materialize_block(block, storage)
        return cls(grid, block, row_range, col_range, (m, n))

    # -- properties ---------------------------------------------------------
    @property
    def is_sparse(self) -> bool:
        """True when the local block is a scipy sparse matrix."""
        return is_sparse(self.block)

    @property
    def local_shape(self) -> Tuple[int, int]:
        """Shape of this rank's block."""
        return tuple(self.block.shape)

    @property
    def local_nnz(self) -> int:
        """Nonzeros in this rank's block (``count_nonzero`` for dense blocks)."""
        if self.is_sparse:
            return int(self.block.nnz)
        return int(np.count_nonzero(self.block))

    # -- collective operations ---------------------------------------------
    def frobenius_norm_squared(self) -> float:
        """Global ``||A||_F²`` via an all-reduce of the local contributions.

        Collective: every rank of the grid must call it.  Used once during
        setup to normalise the objective (the Gram-trick error computation
        needs ``||A||²`` but never ``A`` itself).
        """
        return self.grid.comm.allreduce_scalar(_local_norm_squared(self.block))

    def to_global(self) -> np.ndarray:
        """Reassemble the dense global matrix on every rank (tests/debug only).

        Collective.  This materialises ``m × n`` on every rank — the exact
        thing the production algorithms are designed never to do — so it is
        strictly a correctness-checking utility.
        """
        m, n = self.global_shape
        block = self.block.toarray() if self.is_sparse else np.asarray(self.block)
        pieces = self.grid.comm.allgather_object(
            (self.row_range, self.col_range, block)
        )
        out = np.zeros((m, n), dtype=np.result_type(block, np.float64))
        for (r0, r1), (c0, c1), piece in pieces:
            out[r0:r1, c0:c1] = piece
        return out

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
            row_block = A[r0:r1, :]
            # CSC keeps the column slice cheap, and its transpose is the
            # CSR that line 12's kernel reads (repro.core.local_ops), free.
            col_block = A[:, c0:c1].tocsc()
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
