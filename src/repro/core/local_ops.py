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

A sparse block has no BLAS, and one copy of it serves both products, as in
the authors' MPI-FAUN.  Each nonzero reads one random ``k``-double row of the
dense operand, which is as tall as the block is wide (line 6) or high (line
12): 20 MB on a ``sparse_wire`` rank, far past one core's 4 MiB L2.  There a
nonzero costs 110-120 ns, against 30-40 ns when the operand fits in L2
(docs/ARCHITECTURE.md, "Sparse products in column panels").  So the block's
columns are cut into panels whose rows of ``Hᵀ`` take :data:`PANEL_BYTES`
(:func:`panel_width` columns), and also at line 12's reduce-scatter
boundaries (:func:`column_panels`, one pass over the block):

- line 6 is scipy's CSR kernel ``csr_matvecs``, which computes ``A Hᵀ`` one
  output row at a time (:func:`csr_product_t`).  It reads the block as one
  panel over a :data:`SPARSE_BLOCK_ROWS` × k scratch block, or, where the
  loop lends it a full-height ``rows × k`` accumulator, adds the column panels
  into it one after the other.  A canonical block lists each row's columns in
  order, so every output entry receives the same additions in the same order
  either way;
- line 12 reads each column panel's CSR arrays as the CSC of its transpose:
  scipy's ``csc_matvecs`` scatters row after row of ``W`` into the panel's
  ``width × k`` rows of ``Aᵀ W`` (:func:`csc_product_t`), which are turned
  into their columns of the ``k × rows`` output in L2-sized turns.  Every
  output entry adds its nonzeros in increasing row order, the order of the
  transposed CSR this replaced.

So the bits are scipy's ``(A @ Hᵀ)ᵀ`` and ``(Aᵀ @ W)ᵀ``.  :class:`BlockProducts`
holds the panels, the scratch and ``Hᵀ``'s home for a fit's loop, so in
steady state the products allocate nothing; the line-6 accumulator is
borrowed, never allocated (:meth:`BlockProducts.lend`: on a grid with
``pr > 1``, :func:`~repro.core.hpc_nmf.hpc_nmf` lends W's home, which is dead
during lines 6-7).
"""

from __future__ import annotations

from typing import Optional, Sequence

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
#: or a panel's rows into the ``k × rows`` output: a 2048 × k block of
#: doubles stays in a 2 MB L2 for k up to 128, so turning it costs little.
SPARSE_BLOCK_ROWS = 2048

#: Bytes of the dense operand one column panel of a sparse product reads
#: (its ``PANEL_BYTES / (8 k)`` rows of ``Hᵀ``): one core's L2.  A safety
#: valve like ``repro.nls.kernels.WORKSPACE_BYTES``, not a knob: measured
#: with two ranks at once on ``sparse_wire``'s blocks, where 3-4 MiB were
#: fastest (docs/ARCHITECTURE.md, "Sparse products in column panels").
PANEL_BYTES = 4 << 20

#: Nonzeros per row chunk while :func:`column_panels` builds the panels: its
#: temporaries (16 bytes per nonzero of a chunk) stay about 1 MiB.  Built
#: over the whole block at once, they are large enough that the allocator
#: keeps later arrays off the heap it returned: the ``sparse_wire``
#: sequential fit's resident set grew by 10.8 MiB that way.
_BUILD_NONZEROS = 1 << 16


def _csr64(A):
    """``A`` as CSR with float64 values (no copy when it already is)."""
    A = A.tocsr()
    return A if A.dtype == np.float64 else A.astype(np.float64)


def panel_width(k: int) -> int:
    """Columns of one column panel: the rows of a ``k``-column dense operand
    that take :data:`PANEL_BYTES`."""
    return max(1, PANEL_BYTES // (8 * k))


def _destination(out: Optional[np.ndarray], k: int, cols: int) -> np.ndarray:
    """``out``, or a new ``k × cols`` array; ``ValueError`` on another shape."""
    if out is None:
        return np.empty((k, cols))
    if out.shape != (k, cols):
        raise ValueError(f"out has shape {out.shape}, expected {(k, cols)}")
    return out


def _check_scratch(scratch: np.ndarray, rows: int, k: int) -> None:
    """scipy's kernels write through a flat view of ``scratch``: anything
    shorter than ``rows × k``, narrower or not C-ordered is a ``ValueError``,
    not memory written past its end."""
    if scratch.shape[0] < rows or scratch.shape[1:] != (k,) or not scratch.flags.c_contiguous:
        raise ValueError(f"scratch must be a C-ordered array of at least {rows} × {k}, "
                         f"got {scratch.shape}")


def _panel_cuts(n: int, width: int, ranges: Optional[Sequence[slice]]) -> list:
    """First columns of the panels of :func:`column_panels`, then ``n``."""
    ranges = [slice(0, n)] if ranges is None else ranges
    return sorted({0, n}.union(*(range(r.start, r.stop, width) for r in ranges)))


def column_panels(block, width: int, ranges: Optional[Sequence[slice]] = None) -> list:
    """``block``'s columns in panels: ``[(csr, first column)]``.

    Panels are cut every ``width`` columns inside each of ``ranges`` (slices
    that tile the columns in order; one range by default), so each range is
    a run of whole panels.  One panel is the CSR of ``block`` itself.  More
    are one copy of the block split by panel (values, panel-local column
    indices and one row pointer per panel), equal to the slices
    ``csr[:, first:first + width]``.  They are built from a lookup of each
    column's panel, over :data:`_BUILD_NONZEROS`-nonzero row chunks of the
    block: one sweep counts each panel's entries per row (a ``bincount`` over
    panel and row), the next sorts each chunk's nonzeros by panel (a stable
    sort, so every panel keeps the block's row order and each row's entry
    order) and copies them into place.
    """
    csr = _csr64(block)
    m, n = csr.shape
    cuts = _panel_cuts(n, width, ranges)
    if len(cuts) <= 2:
        return [(csr, 0)]
    count = len(cuts) - 1
    index = np.int32 if max(csr.nnz, n) <= np.iinfo(np.int32).max else np.int64
    lookup = np.repeat(np.arange(count, dtype=np.min_scalar_type(count - 1)), np.diff(cuts))
    edges = np.searchsorted(csr.indptr, np.arange(_BUILD_NONZEROS, csr.nnz, _BUILD_NONZEROS))
    edges = np.unique(np.concatenate(([0], edges, [m])))
    chunks = list(zip(edges[:-1].tolist(), edges[1:].tolist()))
    indptr = np.zeros((count, m + 1), dtype=index)
    for r0, r1 in chunks:
        # Each nonzero's (panel, row) cell of the chunk.
        key = np.repeat(np.arange(r1 - r0), np.diff(csr.indptr[r0:r1 + 1]))
        key += lookup[csr.indices[csr.indptr[r0]:csr.indptr[r1]]] * np.intp(r1 - r0)
        indptr[:, r0 + 1:r1 + 1] = np.bincount(key, minlength=count * (r1 - r0)).reshape(count, -1)
    np.cumsum(indptr, axis=1, out=indptr)
    indices = [np.empty(indptr[q, -1], dtype=index) for q in range(count)]
    data = [np.empty(indptr[q, -1]) for q in range(count)]
    for r0, r1 in chunks:
        s, e = csr.indptr[r0], csr.indptr[r1]
        order = np.argsort(lookup[csr.indices[s:e]], kind="stable") + s
        taken = 0
        for q in range(count):
            a, b = indptr[q, r0], indptr[q, r1]
            picked = order[taken:taken + b - a]
            indices[q][a:b] = csr.indices[picked] - cuts[q]
            data[q][a:b] = csr.data[picked]
            taken += b - a
    return [
        (type(csr)((data[q], indices[q], indptr[q]), shape=(m, cuts[q + 1] - cuts[q]), copy=False),
         cuts[q])
        for q in range(count)
    ]


def csr_product_t(
    panels,
    X: np.ndarray,
    out: Optional[np.ndarray] = None,
    lo: int = 0,
    hi: Optional[int] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Write ``(S[lo:hi] @ X)ᵀ`` into ``out`` (``k × (hi − lo)``) and return it.

    ``S`` is a float64 sparse matrix given as its column panels
    (:func:`column_panels`; ``[(S, 0)]`` is one panel), ``X`` the dense
    right operand (``S.shape[1] × k``, C-ordered or copied so).  Rows
    ``[lo, hi)`` are a range of each panel's row pointer, so a row range of
    ``S`` costs no copy.

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
    out = _destination(out, k, hi - lo)
    if scratch is None:
        scratch = np.empty((max(1, min(SPARSE_BLOCK_ROWS, hi - lo)), k))
    _check_scratch(scratch, min(1, hi - lo), k)
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


def csc_product_t(
    panels,
    X: np.ndarray,
    out: Optional[np.ndarray] = None,
    lo: int = 0,
    hi: Optional[int] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Write ``(S[:, lo:hi]ᵀ @ X)ᵀ`` into ``out`` (``k × (hi − lo)``) and return it.

    ``S`` is a float64 sparse matrix given as its column panels
    (:func:`column_panels`), ``X`` the dense left factor (``S.shape[0] × k``,
    C-ordered or copied so).  Each panel's CSR arrays are the CSC of its
    transpose, so scipy's ``csc_matvecs`` adds each nonzero's row of ``X``
    into the panel's rows of ``Sᵀ X``, in increasing row order of ``S``,
    within ``scratch`` (C-ordered, at least as tall as the widest panel; one
    is allocated when omitted).  Those rows are then turned into their
    columns of ``out`` :data:`SPARSE_BLOCK_ROWS` at a time (a whole 4 MiB
    panel turned at once made a ``sparse_wire`` rank's line 12 about 40 %
    slower).  A range that cuts a panel costs the whole panel.
    """
    from scipy.sparse import _sparsetools

    m = panels[0][0].shape[0]
    hi = panels[-1][1] + panels[-1][0].shape[1] if hi is None else hi
    k = X.shape[1]
    if X.shape[0] != m:
        raise ValueError(f"X has {X.shape[0]} rows, the sparse operand {m}")
    out = _destination(out, k, hi - lo)
    touched = [(csr, first) for csr, first in panels if first < hi and first + csr.shape[1] > lo]
    widest = max((csr.shape[1] for csr, _ in touched), default=0)
    if scratch is None:
        scratch = np.empty((widest, k))
    _check_scratch(scratch, widest, k)
    x = X.ravel()
    for csr, first in touched:
        width = csr.shape[1]
        rows = scratch[:width]
        rows.fill(0.0)  # csc_matvecs accumulates into its output
        _sparsetools.csc_matvecs(
            width, m, k, csr.indptr, csr.indices, csr.data, x, rows.ravel()
        )
        for turn in range(max(first, lo), min(first + width, hi), SPARSE_BLOCK_ROWS):
            stop = min(turn + SPARSE_BLOCK_ROWS, first + width, hi)
            out[:, turn - lo:stop - lo] = rows[turn - first:stop - first].T
    return out


class BlockProducts:
    """Lines 6 and 12 on one local data block, into caller-provided buffers.

    A fit's loop builds one per block and, every iteration, calls
    :meth:`set_h` (or :meth:`set_ht`) and then :meth:`h_at` and
    :meth:`wt_a`.  ``lo``/``hi`` select a row range (line 6) or a column
    range (line 12) of the block without copying it.  Dense blocks go
    straight to BLAS (``np.matmul`` with ``out=``, the call
    :func:`matmul_h_at` makes).  A sparse block keeps its CSR, a scratch
    block as tall as its widest column panel (at least
    :data:`SPARSE_BLOCK_ROWS` rows), its column panels
    (:func:`column_panels`, cut inside each of ``ranges``, the line-12 ranges
    the loop asks for; one range by default), built on first use, and one
    C-ordered home for ``Hᵀ`` (line 6).  Line 12
    reads the caller's ``W`` in place: every loop gathers it C-ordered (a
    strided ``W`` is still right, at the cost of the copy
    :func:`csc_product_t` makes).

    Line 12 runs over the column panels.  Line 6 reads the block as one panel
    over the scratch block's first :data:`SPARSE_BLOCK_ROWS` rows, unless the
    loop lends it a full-height accumulator (:meth:`lend`) and the block is
    wider than one panel with each row's columns in order: then it adds the
    column panels into that.
    """

    def __init__(self, block, k: int, ranges: Optional[Sequence[slice]] = None):
        self.block = block
        self.sparse = is_sparse(block)
        self.k = int(k)
        self.ranges = ranges
        self._operand = self._h = self._ht = self._lent = self._panels = None
        if self.sparse:
            self._csr = _csr64(block)
            cuts = _panel_cuts(block.shape[1], panel_width(self.k), ranges)
            self._scratch = np.empty((max([SPARSE_BLOCK_ROWS, *np.diff(cuts)]), self.k))

    def lend(self, accumulator: Optional[np.ndarray]) -> None:
        """Take a flat buffer that is dead while :meth:`h_at` runs.

        It is line 6's full-height accumulator: at least ``k × (hi − lo)``
        doubles for every range the loop asks for.  ``None`` keeps line 6 on
        the scratch block.  Call before the first product.
        """
        self._lent = accumulator

    def _column_panels(self) -> list:
        if self._panels is None:
            self._panels = column_panels(self._csr, panel_width(self.k), self.ranges)
        return self._panels

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
        csr = self._csr
        if (self._lent is None or csr.shape[1] <= panel_width(self.k)
                or not csr.has_sorted_indices):
            scratch = self._scratch[:SPARSE_BLOCK_ROWS]
            return csr_product_t([(csr, 0)], self._ht, out, lo, hi, scratch)
        rows = hi - lo
        accumulator = self._lent[:rows * self.k].reshape(rows, self.k)
        return csr_product_t(self._column_panels(), self._ht, out, lo, hi, accumulator)

    def wt_a(self, W: np.ndarray, out: np.ndarray, lo: int = 0,
             hi: Optional[int] = None) -> np.ndarray:
        """``Wᵀ A[:, lo:hi]`` (``k × (hi − lo)``) into ``out``; ``W`` is ``m_local × k``."""
        hi = self.block.shape[1] if hi is None else hi
        if not self.sparse:
            return np.matmul(W.T, self.block[:, lo:hi], out=out)
        return csc_product_t(self._column_panels(), W, out, lo, hi, self._scratch)


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
    multiplied over its column panels (:func:`csc_product_t`).
    """
    W_block = np.asarray(W_block)
    if is_sparse(A_block):
        W_block = np.ascontiguousarray(W_block, dtype=np.float64)
        return csc_product_t(column_panels(A_block, panel_width(W_block.shape[1])), W_block, out)
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
