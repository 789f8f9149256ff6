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
``A X`` one output row at a time, reading a row-major ``X``, so its natural
result is ``rows × k``.  :func:`csr_product_t` calls it on ~2048 rows at a
time into a cache-resident ``2048 × k`` scratch block and turns each block
straight into its columns of the caller's ``k × rows`` output, so neither a
``rows × k`` product nor its transpose is ever allocated.  Line 6 runs it on
the CSR of ``A`` against a C-ordered copy of ``Hᵀ``, line 12 on the CSR of
``Aᵀ`` (held once per fit, the CSC of ``A``) against ``W`` itself.  Every
output row sums its nonzeros in scipy's order, so the bits are scipy's
``(A @ Hᵀ)ᵀ`` and ``(Aᵀ @ W)ᵀ``.  :class:`BlockProducts` holds those
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
#: :func:`csr_product_t`: a 2048 × k block of doubles stays in a 2 MB L2 for
#: k up to 128, so turning it into the ``k × rows`` output costs little.
SPARSE_BLOCK_ROWS = 2048


def _csr64(A):
    """``A`` as CSR with float64 values (no copy when it already is)."""
    A = A.tocsr()
    return A if A.dtype == np.float64 else A.astype(np.float64)


def csr_product_t(
    csr,
    X: np.ndarray,
    out: Optional[np.ndarray] = None,
    lo: int = 0,
    hi: Optional[int] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Write ``(csr[lo:hi] @ X)ᵀ`` into ``out`` (``k × (hi − lo)``) and return it.

    ``csr`` is a float64 CSR matrix and ``X`` its C-ordered float64 dense
    right operand (``csr.shape[1] × k``).  Rows ``[lo, hi)`` are a range of
    ``csr``'s row pointer, so a panel of the block costs no copy.  Each block
    of :data:`SPARSE_BLOCK_ROWS` rows is summed by scipy's ``csr_matvecs``
    into ``scratch`` (at least ``SPARSE_BLOCK_ROWS × k``, C-ordered; one is
    allocated when omitted) and transposed into its columns of ``out``.
    """
    from scipy.sparse import _sparsetools

    hi = csr.shape[0] if hi is None else hi
    k = X.shape[1]
    if out is None:
        out = np.empty((k, hi - lo))
    elif out.shape != (k, hi - lo):
        raise ValueError(f"out has shape {out.shape}, expected {(k, hi - lo)}")
    if scratch is None:
        scratch = np.empty((max(1, min(SPARSE_BLOCK_ROWS, hi - lo)), k))
    step = scratch.shape[0]
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    x, n_col = X.ravel(), csr.shape[1]
    for row in range(lo, hi, step):
        end = min(row + step, hi)
        block = scratch[: end - row]
        block.fill(0.0)  # csr_matvecs accumulates into its output
        _sparsetools.csr_matvecs(
            end - row, n_col, k, indptr[row:end + 1], indices, data, x, block.ravel()
        )
        out[:, row - lo:end - lo] = block.T
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
    the CSR of the block (line 6), the CSR of its transpose (line 12), the
    scratch block, and one C-ordered home for ``Hᵀ`` (line 6).  Line 12 reads
    the caller's ``W`` in place: every loop gathers it C-ordered (a strided
    ``W`` is still right, at the cost of the copy ``csr_product_t`` makes).
    """

    def __init__(self, block, k: int):
        self.block = block
        self.sparse = is_sparse(block)
        self.k = int(k)
        self._csr = self._csr_t = self._operand = None
        self._h = self._ht = None
        self._scratch = np.empty((SPARSE_BLOCK_ROWS, self.k)) if self.sparse else None

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
        if self._csr is None:
            self._csr = _csr64(self.block)
        return csr_product_t(self._csr, self._ht, out, lo, hi, self._scratch)

    def wt_a(self, W: np.ndarray, out: np.ndarray, lo: int = 0,
             hi: Optional[int] = None) -> np.ndarray:
        """``Wᵀ A[:, lo:hi]`` (``k × (hi − lo)``) into ``out``; ``W`` is ``m_local × k``."""
        hi = self.block.shape[1] if hi is None else hi
        if not self.sparse:
            return np.matmul(W.T, self.block[:, lo:hi], out=out)
        if self._csr_t is None:
            self._csr_t = _csr64(self.block.T)
        return csr_product_t(self._csr_t, W, out, lo, hi, self._scratch)


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
        return csr_product_t(_csr64(A_block), np.ascontiguousarray(H.T, dtype=np.float64), out)
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
            _csr64(A_block.T), np.ascontiguousarray(W_block, dtype=np.float64), out
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
