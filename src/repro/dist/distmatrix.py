"""Distributed data matrices: the blocks of ``A`` a rank keeps.

Both of the paper's parallel algorithms cut their blocks of ``A`` with one
function, :func:`cut_block`:

* :class:`DistMatrix2D` — Algorithm 3's layout (Figure 2): process ``(i, j)``
  of a ``pr × pc`` grid owns the single block ``A_ij`` of size roughly
  ``m/pr × n/pc``.  The data matrix is stored exactly once and is **never
  communicated**; this is what makes HPC-NMF's communication volume
  independent of ``nnz(A)``.
* Algorithm 2 (:mod:`repro.core.naive`): rank ``i`` of ``p`` cuts a row
  block ``A_i (m/p × n)`` *and* a column block ``A^i (m × n/p)`` (the data
  is stored twice), because Naive-Parallel-NMF multiplies against ``A`` from
  both sides with fully replicated factors.

Both accept dense ndarrays and scipy sparse matrices; the block boundaries
come from :mod:`repro.dist.partition`, so they agree with the factor layout
in :mod:`repro.dist.factors` and with the communicator's default
reduce-scatter counts.

Every rank slices its blocks out of a globally readable ``A`` (exactly how an
MPI code would read its block from a shared file).  Where a block lives
follows the input: a dense block cut from a file-backed ``A`` (an
``np.memmap``, or a view of one) is itself file-backed, so an ``A`` larger
than RAM streams through the fit block by block.  The paper's per-rank
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

    The OS pages the block in and out on demand: its pages are file-backed,
    so they can be dropped or written back instead of held as anonymous
    memory.
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


def cut_block(A, row_range: Tuple[int, int], col_range: Tuple[int, int]):
    """``A[r0:r1, c0:c1]`` as a rank keeps it.

    Nothing is communicated: every rank calls this with the same ``A`` and
    keeps only its own block.  A sparse block is canonical CSR (COO/DIA/BSR
    inputs are converted first, as they do not slice): a slice of a
    non-canonical ``A`` may carry duplicate coordinates, which would corrupt
    nnz counts and the Frobenius norm (``data @ data`` assumes one entry per
    position), so its duplicates are summed.  A block that is the whole
    canonical matrix (a 1 × 1 grid) is kept as it is; any other is sliced
    into a copy, so the caller's matrix is never changed.

    A dense block's storage follows ``A``'s: a block of a file-backed ``A``
    (an ``np.memmap`` or a view of one) is copied once onto an ``np.memmap``
    over an unlinked temporary file; any other block is held in memory,
    C-ordered.  Zero-size blocks (more ranks than rows) stay in memory: they
    hold nothing to page, and older numpy cannot map zero bytes.  The bytes
    are the same either way.
    """
    r0, r1 = row_range
    c0, c1 = col_range
    if is_sparse(A):
        block = A.tocsr()
        if block.shape != (r1 - r0, c1 - c0) or not block.has_canonical_format:
            block = block[r0:r1, c0:c1]
            block.sum_duplicates()
        return block
    block = np.asarray(A)[r0:r1, c0:c1]
    if block.size and _file_backed(A):
        return _on_temp_memmap(block)
    return np.ascontiguousarray(block)


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
        self.grid = grid
        self.block = block
        self.row_range = row_range
        self.col_range = col_range
        self.global_shape = (int(global_shape[0]), int(global_shape[1]))

    # -- construction -------------------------------------------------------
    @classmethod
    def from_global(cls, grid, A) -> "DistMatrix2D":
        """This rank's ``A_ij`` of a globally readable matrix (:func:`cut_block`)."""
        m, n = A.shape
        i, j = grid.coords
        row_range, col_range = block_range(m, grid.pr, i), block_range(n, grid.pc, j)
        return cls(grid, cut_block(A, row_range, col_range), row_range, col_range, (m, n))

    # -- collective operations ---------------------------------------------
    def frobenius_norm_squared(self) -> float:
        """Global ``||A||_F²`` via an all-reduce of the local contributions.

        Collective: every rank of the grid must call it.  Used once during
        setup to normalise the objective (the Gram-trick error computation
        needs ``||A||²`` but never ``A`` itself).
        """
        return self.grid.comm.allreduce_scalar(_local_norm_squared(self.block))
