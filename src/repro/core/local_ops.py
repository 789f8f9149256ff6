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


#: Rows of the tall operand moved per step of :func:`transpose_into`: a
#: 256 × k block of doubles stays cache-resident for k up to a few hundred.
_TRANSPOSE_BLOCK_ROWS = 256


def transpose_into(src: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``src.T`` into ``out`` (both C-ordered) one row block at a time.

    Only the sparse products need this: scipy implements ``sparse @ dense``
    alone, so the sparse operand leads and the product comes out tall and
    skinny (``n × k`` with ``k`` in the tens) while the NLS solvers read
    ``k × n``.  (Dense blocks get that layout from BLAS directly.)  A plain
    strided copy of the transpose writes ``k`` far-apart output rows per
    input row and misses cache on every element (19–25 ms at 60000–80000 ×
    32); moving one cache-sized row block at a time costs 4–6 ms.  The
    opposite direction (``k × n → n × k``) is already fast as a plain
    ``np.copyto``.
    """
    if out.shape != src.shape[::-1]:
        raise ValueError(f"out has shape {out.shape}, expected {src.shape[::-1]}")
    step = _TRANSPOSE_BLOCK_ROWS
    for lo in range(0, src.shape[0], step):
        out[:, lo:lo + step] = src[lo:lo + step].T
    return out


def _turned(product, out: Optional[np.ndarray] = None) -> np.ndarray:
    """A sparse-leading ``rows × k`` product as the ``k × rows`` array the NLS reads."""
    product = np.asarray(product)
    if out is None:
        out = np.empty(product.shape[::-1], product.dtype)
    return transpose_into(product, out)


def matmul_h_at(H: np.ndarray, A_block, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``H @ A_blockᵀ`` giving a C-ordered (k, m_local) dense array.

    This is ``V_ij = A_ij H_jᵀ`` (line 6 of Algorithm 3, and the matching
    product of Algorithms 1-2) in the orientation the line-8 NLS reads: the
    skinny factor leads, as in :func:`matmul_wt_a`.  ``H`` is ``k × n_local``;
    the result is written into ``out`` when given (``ValueError`` unless it
    is ``k × m_local``).
    """
    H = np.asarray(H)
    if is_sparse(A_block):
        return _turned(A_block @ H.T, out)
    return np.matmul(H, A_block.T, out=out)


def matmul_a_ht(A_block, Ht: np.ndarray) -> np.ndarray:
    """``A_block @ Ht`` where ``Ht = Hᵀ`` has shape (n_local, k).

    The ``m_local × k`` spelling of :func:`matmul_h_at`, kept for callers
    outside the iteration loops (benchmarks): for dense blocks the transposed
    view of that primitive, for sparse blocks the scipy product it turns.
    """
    Ht = np.asarray(Ht)
    if is_sparse(A_block):
        return np.asarray(A_block @ Ht)
    return matmul_h_at(Ht.T, A_block).T


def matmul_wt_a(W_block: np.ndarray, A_block) -> np.ndarray:
    """``W_blockᵀ @ A_block`` giving a (k, n_local) dense array.

    This is ``Y_ij = W_iᵀ A_ij`` (line 12 of Algorithm 3).
    """
    W_block = np.asarray(W_block)
    if is_sparse(A_block):
        return _turned(A_block.T @ W_block)
    return W_block.T @ A_block


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
