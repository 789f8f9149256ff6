"""Local matrix kernels shared by the sequential and parallel algorithms.

These are the "MM" and "Gram" tasks of the paper's time breakdown (§6.3):
multiplying the local data block with a factor block, and forming the local
contribution to the k×k Gram matrices.  They transparently handle dense
(ndarray) and sparse (CSR/CSC) data blocks; in the sparse case the matmul cost
is ``2·nnz(A_local)·k`` flops instead of ``2·(m_local·n_local)·k``, exactly the
distinction the paper draws in its computation-cost analysis.

Both MM products have one orientation: the skinny factor is the left operand
and the result is ``k × rows`` — ``H A_blockᵀ`` (:func:`matmul_h_at`, line 6)
and ``Wᵀ A_block`` (:func:`matmul_wt_a`, line 12).  That is the C-ordered
layout the NLS solvers read, so the loops never transpose a product, and it
is the orientation BLAS runs fastest (measured on ``dense_mm``'s 3000 × 4000
block at k = 32: 21 ms k-leading against 29 ms for ``A @ Hᵀ``, same bits).

A sparse block has no BLAS: scipy's CSR kernel ``csr_matvecs`` computes
``S X`` one output row at a time, reading a row-major ``X``, so its natural
result is ``rows × k``.  :func:`csr_product_t` turns each finished block of
that result straight into its columns of the caller's ``k × rows`` output,
so neither a ``rows × k`` product nor its transpose is ever allocated.  Line
6 runs it on the CSR of ``A`` against a C-ordered copy of ``Hᵀ``, line 12 on
the CSR of ``Aᵀ`` against ``W`` itself.  Every output row sums its nonzeros
in scipy's order, so the bits are scipy's ``(A @ Hᵀ)ᵀ`` and ``(Aᵀ @ W)ᵀ``.

Each nonzero reads one random ``k``-double row of ``X``, and ``X`` is as
tall as the block is wide: 20 MB on a ``sparse_wire`` rank, far past one
core's 4 MiB L2.  There a nonzero costs 110-120 ns, against 30-40 ns when
``X`` fits in L2 (docs/ARCHITECTURE.md, "Sparse products in column
panels").  So the products run in column panels: ``S``'s
columns are cut into panels whose rows of ``X`` take :data:`PANEL_BYTES`
(:func:`panel_width` rows), and ``csr_matvecs`` adds panel after panel into
one full-height ``rows × k`` accumulator, which is then turned into ``out``
:data:`SPARSE_BLOCK_ROWS` rows at a time.  A canonical block lists each
row's columns in order, so every output entry receives the same additions
in the same order as from one panel: the bits do not change.  Line 6's
panels are a copy of the block reordered by panel (12 bytes per nonzero),
line 12's are the transposes of the block's row slices, which together
replace the one transpose.

The accumulator is borrowed, never allocated: :meth:`BlockProducts.lend`
takes a loop buffer that is dead while the product runs (on a grid with
``pr > 1``, :func:`~repro.core.hpc_nmf.hpc_nmf` lends W's home to line 6 and
the gathered ``H_jᵀ`` to line 12).  Without one — the sequential fit, any
``1 × pc`` grid, the naive loop — or when ``X`` fits one panel, a product
runs as one panel over a :data:`SPARSE_BLOCK_ROWS` × k scratch block, one
cache-resident block of rows at a time.  :class:`BlockProducts` holds those
operands for a fit's loop, so in steady state the products allocate nothing.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.util.validation import is_sparse


def gram(X: np.ndarray, transpose_first: bool) -> np.ndarray:
    """Return ``XᵀX`` (``transpose_first=True``) or ``XXᵀ`` (False), symmetrised.

    Used for the local Gram contributions ``U_ij = (H_j)_i (H_j)_iᵀ`` and
    ``X_ij = (W_i)_jᵀ (W_i)_j`` (lines 3 and 9 of Algorithm 3).
    """
    X = np.asarray(X)
    G = X.T @ X if transpose_first else X @ X.T
    # Force exact symmetry so downstream Cholesky factorizations are stable.
    return (G + G.T) * 0.5


#: Rows of the sparse operand per call of scipy's kernel in
#: :func:`csr_product_t` over one panel, and rows per turn of an accumulator
#: into the ``k × rows`` output: a 2048 × k block of doubles stays in a 2 MB
#: L2 for k up to 128, so turning it costs little.
SPARSE_BLOCK_ROWS = 2048

#: Bytes of the dense right operand one column panel of a sparse product
#: reads (its ``PANEL_BYTES / (8 k)`` rows): one core's L2.  A safety valve
#: like ``repro.nls.kernels.WORKSPACE_BYTES``, not a knob: measured with two
#: ranks at once on ``sparse_wire``'s blocks, where 3-4 MiB were fastest
#: (docs/ARCHITECTURE.md, "Sparse products in column panels").
PANEL_BYTES = 4 << 20


def _csr64(A):
    """``A`` as CSR with float64 values (no copy when it already is)."""
    A = A.tocsr()
    return A if A.dtype == np.float64 else A.astype(np.float64)


def panel_width(k: int) -> int:
    """Rows of a ``k``-column dense operand that one column panel reads."""
    return max(1, PANEL_BYTES // (8 * k))


def column_panels(block, width: Optional[int]) -> list:
    """``block``'s columns in panels of ``width``: ``[(csr, first column)]``.

    Each panel is a CSR copy of a column range (together 12 bytes per
    nonzero).  ``width=None``, a width that spans every column, or a block
    whose rows are not sorted by column (splitting those would reorder their
    sums) give one panel, the CSR of ``block`` itself.
    """
    csr = _csr64(block)
    n = csr.shape[1]
    if width is None or width >= n or not csr.has_sorted_indices:
        return [(csr, 0)]
    return [(csr[:, c:c + width], c) for c in range(0, n, width)]


def transposed_panels(block, width: Optional[int]) -> list:
    """The columns of ``blockᵀ`` in panels of ``width``: ``[(csr, first column)]``.

    Panel ``q`` is the CSR of the transpose of ``block``'s rows
    ``[q·width, (q + 1)·width)``, so together the panels hold ``blockᵀ``
    once; ``width=None`` (or one spanning every row) gives the CSR of
    ``blockᵀ`` as one panel.  Every row of a transpose lists its columns in
    order, so the panels keep each row's order.
    """
    m = block.shape[0]
    if width is None or width >= m:
        return [(_csr64(block.T), 0)]
    csr = _csr64(block)
    return [(_csr64(_row_view(csr, r, min(r + width, m)).T), r) for r in range(0, m, width)]


def _row_view(csr, r0: int, r1: int):
    """Rows ``[r0, r1)`` of ``csr`` over views of its value and index arrays."""
    s, e = csr.indptr[r0], csr.indptr[r1]
    return type(csr)(
        (csr.data[s:e], csr.indices[s:e], csr.indptr[r0:r1 + 1] - s),
        shape=(r1 - r0, csr.shape[1]), copy=False,
    )


def csr_product_t(
    panels,
    X: np.ndarray,
    out: Optional[np.ndarray] = None,
    lo: int = 0,
    hi: Optional[int] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Write ``(S[lo:hi] @ X)ᵀ`` into ``out`` (``k × (hi − lo)``) and return it.

    ``S`` is a float64 sparse matrix given as its column panels, a list of
    ``(csr, first)`` pairs whose ``csr`` holds ``S``'s columns from ``first``
    on (:func:`column_panels`, :func:`transposed_panels`; ``[(S, 0)]`` is one
    panel).  ``X`` is the dense right operand (``S.shape[1] × k``, C-ordered
    or copied so).  Rows ``[lo, hi)`` are a range of each panel's row
    pointer, so a row range of ``S`` costs no copy.

    Rows are summed ``scratch.shape[0]`` at a time (at least that many × k,
    C-ordered; a :data:`SPARSE_BLOCK_ROWS` one is allocated when omitted):
    scipy's ``csr_matvecs`` adds each panel's nonzeros into the zeroed rows,
    panel after panel, and the rows are turned into their columns of ``out``
    :data:`SPARSE_BLOCK_ROWS` at a time.  With sorted column indices in every
    row, each output entry receives its additions in the order one panel
    would give them, so the bits do not depend on the panels.
    """
    from scipy.sparse import _sparsetools

    hi = panels[0][0].shape[0] if hi is None else hi
    k = X.shape[1]
    if out is None:
        out = np.empty((k, hi - lo))
    elif out.shape != (k, hi - lo):
        raise ValueError(f"out has shape {out.shape}, expected {(k, hi - lo)}")
    if scratch is None:
        scratch = np.empty((max(1, min(SPARSE_BLOCK_ROWS, hi - lo)), k))
    step = max(1, scratch.shape[0])  # an empty range has an empty accumulator
    operands = [
        (csr.indptr, csr.indices, csr.data, csr.shape[1],
         X[first:first + csr.shape[1]].ravel())
        for csr, first in panels
    ]
    for row in range(lo, hi, step):
        end = min(row + step, hi)
        block = scratch[: end - row]
        block.fill(0.0)  # csr_matvecs accumulates into its output
        for indptr, indices, data, n_col, x in operands:
            _sparsetools.csr_matvecs(
                end - row, n_col, k, indptr[row:end + 1], indices, data, x, block.ravel()
            )
        for turn in range(row, end, SPARSE_BLOCK_ROWS):
            stop = min(turn + SPARSE_BLOCK_ROWS, end)
            out[:, turn - lo:stop - lo] = block[turn - row:stop - row].T
    return out


class BlockProducts:
    """Lines 6 and 12 on one local data block, into caller-provided buffers.

    A fit's loop builds one per block and, every iteration, calls
    :meth:`set_h` (or :meth:`set_ht`) and then :meth:`h_at` and
    :meth:`wt_a`.  ``lo``/``hi`` select a row panel (line 6) or a column
    panel (line 12) of the block without copying it.  Dense blocks go
    straight to BLAS (``np.matmul`` with ``out=``, the call
    :func:`matmul_h_at` makes).  Sparse blocks keep what
    :func:`csr_product_t` reads, each built on first use and reused after:
    the column panels of the block (line 6) and of its transpose (line 12),
    the scratch block, and one C-ordered home for ``Hᵀ`` (line 6).  Line 12
    reads the caller's ``W`` in place: every loop gathers it C-ordered (a
    strided ``W`` is still right, at the cost of the copy ``csr_product_t``
    makes).

    Each product runs as one panel over the scratch block unless the loop
    lends it a full-height accumulator (:meth:`lend`): then the block's
    columns (line 6) or rows (line 12) are cut into :func:`panel_width`
    panels, built on first use (line 6's are a 12-byte-per-nonzero copy of
    the block; line 12's replace the one-panel transpose).
    """

    def __init__(self, block, k: int):
        self.block = block
        self.sparse = is_sparse(block)
        self.k = int(k)
        self._operand = self._h = self._ht = None
        self._scratch = np.empty((SPARSE_BLOCK_ROWS, self.k)) if self.sparse else None
        self._lent = [None, None]     # line 6, line 12
        self._panels = [None, None]

    def lend(self, h_at: Optional[np.ndarray], wt_a: Optional[np.ndarray]) -> None:
        """Take flat buffers that are dead while :meth:`h_at` / :meth:`wt_a` run.

        Each is its product's full-height accumulator: at least
        ``k × (hi − lo)`` doubles for every range the loop asks for.  ``None``
        keeps that product on the scratch block.  Call before the first
        product.
        """
        self._lent = [h_at, wt_a]

    def _sparse_product(self, line, build, X, out, lo, hi) -> np.ndarray:
        lent = self._lent[line]
        if self._panels[line] is None:
            width = None if lent is None else panel_width(self.k)
            self._panels[line] = build(self.block, width)
        panels = self._panels[line]
        rows = hi - lo
        scratch = self._scratch if len(panels) == 1 else lent[:rows * self.k].reshape(rows, self.k)
        return csr_product_t(panels, X, out, lo, hi, scratch)

    def set_h(self, H: np.ndarray) -> None:
        """Take this iteration's ``H`` (``k × n_local``) for :meth:`h_at`."""
        if not self.sparse:
            self._h = H
            return
        if self._operand is None:
            self._operand = np.empty((self.block.shape[1], self.k))
        np.copyto(self._operand, H.T)
        self._ht = self._operand

    def set_ht(self, Ht: np.ndarray) -> None:
        """Take this iteration's ``Hᵀ`` as a C-ordered ``n_local × k`` array
        (sparse blocks only; it is read in place)."""
        self._ht = Ht

    def h_at(self, out: np.ndarray, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """``H A[lo:hi]ᵀ`` (``k × (hi − lo)``) into ``out``, for the last :meth:`set_h`."""
        hi = self.block.shape[0] if hi is None else hi
        if not self.sparse:
            return np.matmul(self._h, self.block[lo:hi].T, out=out)
        if self._ht is None:
            raise RuntimeError("h_at needs set_h or set_ht first")
        return self._sparse_product(0, column_panels, self._ht, out, lo, hi)

    def wt_a(self, W: np.ndarray, out: np.ndarray, lo: int = 0,
             hi: Optional[int] = None) -> np.ndarray:
        """``Wᵀ A[:, lo:hi]`` (``k × (hi − lo)``) into ``out``; ``W`` is ``m_local × k``."""
        hi = self.block.shape[1] if hi is None else hi
        if not self.sparse:
            return np.matmul(W.T, self.block[:, lo:hi], out=out)
        return self._sparse_product(1, transposed_panels, W, out, lo, hi)


def matmul_h_at(H: np.ndarray, A_block, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``H @ A_blockᵀ`` giving a C-ordered (k, m_local) dense array.

    This is ``V_ij = A_ij H_jᵀ`` (line 6 of Algorithm 3, and the matching
    product of Algorithms 1-2) in the orientation the line-8 NLS reads: the
    skinny factor leads, as in :func:`matmul_wt_a`.  ``H`` is ``k × n_local``;
    the result is written into ``out`` when given (``ValueError`` unless it
    is ``k × m_local``).  The loops use :class:`BlockProducts` instead, which
    keeps the sparse operands across iterations.
    """
    H = np.asarray(H)
    if is_sparse(A_block):
        Ht = np.ascontiguousarray(H.T, dtype=np.float64)
        return csr_product_t([(_csr64(A_block), 0)], Ht, out)
    return np.matmul(H, A_block.T, out=out)


def matmul_a_ht(A_block, Ht: np.ndarray) -> np.ndarray:
    """``A_block @ Ht`` where ``Ht = Hᵀ`` has shape (n_local, k).

    The ``m_local × k`` spelling of :func:`matmul_h_at`, kept for callers
    outside the iteration loops (benchmarks): for dense blocks the transposed
    view of that primitive, for sparse blocks scipy's product.
    """
    Ht = np.asarray(Ht)
    if is_sparse(A_block):
        return np.asarray(A_block @ Ht)
    return matmul_h_at(Ht.T, A_block).T


def matmul_wt_a(W_block: np.ndarray, A_block, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``W_blockᵀ @ A_block`` giving a (k, n_local) dense array.

    This is ``Y_ij = W_iᵀ A_ij`` (line 12 of Algorithm 3); a sparse block is
    multiplied through the CSR of its transpose (free for a CSC block).
    """
    W_block = np.asarray(W_block)
    if is_sparse(A_block):
        return csr_product_t(
            [(_csr64(A_block.T), 0)], np.ascontiguousarray(W_block, dtype=np.float64), out
        )
    return np.matmul(W_block.T, A_block, out=out)


def local_cross_term(rhs_block: np.ndarray, factor_block: np.ndarray) -> float:
    """Local contribution to ``⟨A Hᵀ, W⟩`` / ``⟨Wᵀ A, H⟩`` for the error trick.

    Both arguments are this rank's co-located blocks of the two matrices; the
    global cross term is the all-reduce sum of these scalars.
    """
    return float(np.vdot(np.asarray(rhs_block), np.asarray(factor_block)))


def dense_matmul_flops(m: int, n: int, k: int) -> float:
    """Flops of one dense ``(m × n) @ (n × k)`` multiply: ``2 m n k``.

    This is the single source of truth for the §4.3 matmul flop count —
    the analytic model (:mod:`repro.perf.model`) derives its per-iteration
    expressions from it rather than re-encoding the formula.
    """
    return 2.0 * m * n * k


def sparse_matmul_flops(nnz: float, k: int) -> float:
    """Flops of one sparse-times-dense multiply with ``nnz`` nonzeros: ``2 nnz k``.

    The §4.3 / §5 sparse counterpart of :func:`dense_matmul_flops`; also the
    single source of truth for :mod:`repro.perf.model`.
    """
    return 2.0 * nnz * k


def matmul_flops(A_block, k: int) -> float:
    """Flop count of multiplying the local block with a k-column factor.

    Dense blocks cost ``2 m_local n_local k`` flops; sparse blocks
    ``2 nnz k`` (the paper's §4.3 / §5 distinction).
    """
    if is_sparse(A_block):
        return sparse_matmul_flops(A_block.nnz, k)
    m_local, n_local = A_block.shape
    return dense_matmul_flops(m_local, n_local, k)


# The NLS-side flop primitives (Cholesky factorization and triangular
# substitution) live next to the kernels that tally them; re-exported here so
# all §4.3 flop accounting is importable from one module.
from repro.nls.kernels import cholesky_flops, triangular_solve_flops  # noqa: E402,F401
