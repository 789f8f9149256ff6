"""Algorithm 3: HPC-NMF on a ``pr × pc`` processor grid.

This is the paper's contribution.  Process ``(i, j)`` owns the data block
``A_ij (m/pr × n/pc)``, the factor sub-blocks ``(W_i)_j (m/p × k)`` and
``(H_j)_i (k × n/p)``, and per iteration executes lines 3-14 of Algorithm 3:

====  ======================================================  ==============
line  operation                                               task category
====  ======================================================  ==============
 3    ``U_ij = (H_j)_i (H_j)_iᵀ``                              Gram
 4    ``H Hᵀ = Σ U_ij``            (all-reduce, all procs)     All-Reduce
 5    collect ``H_j``              (all-gather, proc column)   All-Gather
 6    ``V_ij = A_ij H_jᵀ``  (computed as ``H_j A_ijᵀ``)         MM
 7    ``(A Hᵀ)_i = Σ_j V_ij``      (reduce-scatter, proc row)  Reduce-Scatter
 8    solve for ``(W_i)_j``                                    NLS
 9    ``X_ij = (W_i)_jᵀ (W_i)_j``                              Gram
10    ``Wᵀ W = Σ X_ij``            (all-reduce, all procs)     All-Reduce
11    collect ``W_i``              (all-gather, proc row)      All-Gather
12    ``Y_ij = W_iᵀ A_ij``                                     MM
13    ``(Wᵀ A)_j = Σ_i Y_ij``      (reduce-scatter, proc col)  Reduce-Scatter
14    solve for ``(H_j)_i``                                    NLS
====  ======================================================  ==============

The loop runs these lines in this order, each collective a blocking call at
its line, timed under the category of the last column; lines 3-4 are skipped
when the previous iteration's error path already all-reduced ``H Hᵀ``, and
the error path (:meth:`repro.core.spmd_loop.SpmdLoop.end_iteration`) follows
line 14.  Lines 8 and 14 solve the normal equations after the one hook a
penalty needs (:class:`repro.core.regularized.Penalty`), which an
unregularized run passes through as they are.

On a 1 × 1 grid every collective hands back its input and this is
Algorithm 1 (the ``sequential`` variant runs it so, over
:class:`~repro.comm.communicator.SelfComm`).

The data matrix is never communicated; per iteration the algorithm moves
``O(min{√(mnk²/p), nk})`` words in ``O(log p)`` messages (Table 2), which is
optimal for dense ``A`` when ``k ≤ √(mn/p)`` (Theorem 5.1).

The 1D variant the paper benchmarks ("HPC-NMF-1D") is simply the grid
``pr = p, pc = 1``; nothing else changes.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.comm.communicator import Comm
from repro.comm.grid import ProcessGrid, choose_grid
from repro.comm.panels import panel_slices, stream_reduce_scatter
from repro.comm.profiler import TaskCategory
from repro.core.config import NMFConfig
from repro.core.initialization import init_h_slice
from repro.core.local_ops import BlockProducts, gram
from repro.core.observers import IterationObserver
from repro.core.regularized import Penalty, Regularization
from repro.core.spmd_loop import SpmdLoop
from repro.dist.distmatrix import DistMatrix2D
from repro.dist.factors import DistributedFactorH, DistributedFactorW
from repro.dist.partition import block_counts
from repro.util.errors import CommunicatorError


def resolve_grid(config: NMFConfig, m: int, n: int, p: int) -> Tuple[int, int]:
    """Determine the processor grid for a run.

    Explicit ``config.grid`` wins; otherwise the paper's grid-selection rule
    (§5) applies.  (The ``hpc1d`` variant *is* the explicit grid ``(p, 1)``.)
    """
    if config.grid is not None:
        pr, pc = config.grid
        if pr * pc != p:
            raise CommunicatorError(
                f"requested grid {pr}x{pc} does not match {p} processes"
            )
        return pr, pc
    return choose_grid(m, n, p)


def hpc_nmf(
    comm: Comm,
    A,
    config: NMFConfig,
    observers: Optional[Sequence[IterationObserver]] = None,
    variant: str = "hpc2d",
    regularization: Penalty = Regularization(),
    initial: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> dict:
    """SPMD per-rank program for Algorithm 3.

    Parameters
    ----------
    comm:
        World communicator of ``p = pr * pc`` ranks.
    A:
        Global data matrix readable by every rank (each rank slices out its
        own ``A_ij``; see :meth:`repro.dist.distmatrix.DistMatrix2D.from_global`).
    config:
        Run options; the grid is resolved by :func:`resolve_grid`.
    observers:
        Iteration observers, notified on rank 0 (see
        :mod:`repro.core.observers` for the SPMD dispatch rules).
    variant:
        Registry name of the variant running this program (any but
        ``"naive"``): provenance for the result and the observers.
    regularization:
        The :class:`~repro.core.regularized.Penalty` at lines 8 and 14: ridge/L1
        weights (none by default) or :class:`~repro.core.symmetric.SymmetryPenalty`.
    initial:
        Global ``(W0, H0)`` to warm-start from (streaming NMF's refresh);
        by default ``H`` is seeded from ``config.seed`` and ``W`` starts empty.

    Returns
    -------
    dict with this rank's factor sub-blocks and diagnostics; combine with
    :func:`repro.core.spmd_loop.assemble_result`.
    """
    m, n = A.shape
    k = config.k
    p = comm.size

    pr, pc = resolve_grid(config, m, n, p)

    solver = config.make_solver()

    grid = ProcessGrid(comm, pr, pc)
    data = DistMatrix2D.from_global(grid, A)

    # Factor sub-blocks (Figure 2), each built around its real block: H is
    # seeded identically to the sequential reference, and W is its home
    # buffer below, which line 8 fills before anything reads it.
    H_fac = DistributedFactorH(grid, k, n)
    W_fac = DistributedFactorW(grid, m, k)
    if initial is None:
        H_fac.local = init_h_slice(k, n, config.seed, H_fac.global_range)
    else:
        H_fac.local = np.array(initial[1][:, slice(*H_fac.global_range)], order="C")

    norm_a_sq = data.frobenius_norm_squared()

    # Reduce-scatter block sizes: the m/pr columns of V_ijᵀ (k × m/pr, see
    # repro.core.local_ops) split pc ways, and the n/pc columns of Y_ij split
    # pr ways — exactly the (W_i)_j / (H_j)_i sub-blocking, so each rank
    # receives precisely its own sub-block.
    local_rows = data.row_range[1] - data.row_range[0]
    local_cols = data.col_range[1] - data.col_range[0]
    w_scatter_counts = block_counts(local_rows, pc)
    h_scatter_counts = block_counts(local_cols, pr)

    # The scatter boundaries also tile the line-6/line-12 matmuls: the
    # columns of V_ijᵀ bound for row-comm rank t come from the matching row
    # panel of A_ij, the columns of Y_ij for col-comm rank t from the matching
    # column panel.  A panel is a row or column range of the block's operands
    # (see repro.core.local_ops.BlockProducts), and each is reduce-scattered
    # the moment it is computed (see repro.comm.panels).  A sparse block's
    # cache-sized column panels are cut inside the line-12 ranges, so each
    # range is a run of whole panels.
    w_panels = panel_slices(w_scatter_counts)
    h_panels = panel_slices(h_scatter_counts)
    mm = BlockProducts(data.block, k, h_panels)

    # Reusable collective workspaces: every iteration runs the same
    # collectives on the same shapes, so their results are written into
    # persistent per-rank buffers instead of fresh allocations.  Each live
    # result gets its own named buffer.  A size-1 row or column communicator
    # hands back its input, so its collectives get no buffer at all.
    ws = comm.workspace

    def recv_buffer(sub_comm: Comm, name: str, shape) -> Optional[np.ndarray]:
        return ws.get(name, shape) if sub_comm.size > 1 else None

    w_sub_rows = W_fac.global_range[1] - W_fac.global_range[0]
    h_sub_cols = H_fac.global_range[1] - H_fac.global_range[0]
    gram_h_buf = recv_buffer(comm, "gram_h", (k, k))
    gram_w_buf = recv_buffer(comm, "gram_w", (k, k))
    W_i_buf = recv_buffer(grid.row_comm, "W_i", (local_rows, k))
    # Line 5 gathers H_j for line 6.  A dense block multiplies it as gathered;
    # a sparse block's kernel reads H_jᵀ, so each rank sends its (H_j)_iᵀ and
    # the gather assembles H_jᵀ where the kernel reads it (the same words).
    # The send copy is read until line 5 returns (until line 7 on pr = 1,
    # where the gather hands it back as H_jᵀ) and W's C-ordered home — the
    # line-8 solution (W_i)_jᵀ transposed — from line 8 to the end of the
    # iteration, so the two share one flat buffer.  It also holds any line-6
    # panel's k × rows (W's sub-block is one of those panels).
    #
    # With pr > 1 that buffer is free during lines 6-7: it is lent to line 6
    # as the full-height accumulator of its column panels
    # (repro.core.local_ops).  On pr = 1 nothing is free and line 6 runs as
    # one panel; line 12 needs no accumulator.
    if mm.sparse:
        home = ws.get("ht_w_home", k * max(h_sub_cols, *w_scatter_counts))
        ht_local_buf = home[:h_sub_cols * k].reshape(h_sub_cols, k)
        W_fac.local = home[:w_sub_rows * k].reshape(w_sub_rows, k)
        Ht_j_buf = recv_buffer(grid.col_comm, "H_jt", (local_cols, k))
        if grid.col_comm.size > 1:
            mm.lend(home)
    else:
        W_fac.local = ws.get("w_local", (w_sub_rows, k))
        H_j_buf = recv_buffer(grid.col_comm, "H_j", (k, local_cols))

    # Both reduce-scatters land in the C-ordered k × (m/p) / k × (n/p) buffer
    # the NLS after them reads.
    aht_buf = recv_buffer(grid.row_comm, "aht_block", (k, w_sub_rows))
    wta_buf = recv_buffer(grid.col_comm, "wta_block", (k, h_sub_cols))
    # Every MM panel of both half-iterations is written to the front of one
    # flat buffer: a panel is free once its reduce-scatter returns, line 6's
    # last one (the line-8 right-hand side on a size-1 row communicator) once
    # line 8 has solved, and line 12's last one is read until the next line 6.
    rhs_buf = ws.get("rhs", k * max(max(w_scatter_counts), max(h_scatter_counts)))

    def panel_out(s: slice) -> np.ndarray:
        return rhs_buf[:k * (s.stop - s.start)].reshape(k, s.stop - s.start)

    # The line-8 NLS warm-starts from its own previous (W_i)_jᵀ, C-ordered
    # like its right-hand side, and writes its solution over it; line 14 does
    # the same with H's sub-block.  Iteration 0 warm-starts only from a
    # nonzero ``initial`` block, and an all-zero W always cold-starts.
    Wt_local = np.empty((k, w_sub_rows))
    if initial is not None:
        Wt_local[:] = initial[0][slice(*W_fac.global_range)].T

    loop = SpmdLoop(comm, config, observers, variant, (pr, pc), norm_a_sq, regularization)
    profiler = loop.profiler

    # Lines 3-14 in the paper's order, each collective a blocking call at the
    # line that reads its result.  On a size-1 row (column) communicator —
    # every pr × 1 (1 × pc) grid — a gather or reduce-scatter hands back its
    # input: W_i is W_fac.local, the line-8 right-hand side is the array the
    # line-6 MM wrote.
    for iteration in range(config.max_iters):
        iter_start = time.perf_counter()

        # ---------------- Compute W given H (lines 3-8) ----------------
        gram_h = loop.gram_h  # the error path's H Hᵀ, when it ran last iteration
        if gram_h is None:
            with profiler.task(TaskCategory.GRAM):
                U_ij = gram(H_fac.local, transpose_first=False)  # line 3
            with profiler.collective(TaskCategory.ALL_REDUCE, comm):
                gram_h = comm.allreduce(U_ij, out=gram_h_buf)    # line 4
        if mm.sparse:
            with profiler.task(TaskCategory.MM):
                np.copyto(ht_local_buf, H_fac.local.T)
            with profiler.collective(TaskCategory.ALL_GATHER, grid.col_comm):
                Ht_j = grid.col_comm.allgatherv(ht_local_buf, axis=0, out=Ht_j_buf)  # line 5
            with profiler.task(TaskCategory.MM):
                mm.set_ht(Ht_j)
        else:
            with profiler.collective(TaskCategory.ALL_GATHER, grid.col_comm):
                H_j = H_fac.col_block(out=H_j_buf)               # line 5
            with profiler.task(TaskCategory.MM):
                mm.set_h(H_j)
        aht_block = stream_reduce_scatter(                       # lines 6-7
            grid.row_comm,
            lambda t: mm.h_at(panel_out(w_panels[t]), w_panels[t].start, w_panels[t].stop),
            w_scatter_counts,
            axis=1,
            out=aht_buf,
            profiler=profiler,
        )
        with profiler.task(TaskCategory.NLS):
            normal = regularization.normal_equations(gram_h, aht_block, H_fac.local)
            warm = (iteration or initial is not None) and np.any(Wt_local)
            solver.solve(*normal, x0=Wt_local if warm else None, out=Wt_local)  # line 8
        np.copyto(W_fac.local, Wt_local.T)

        # ---------------- Compute H given W (lines 9-14) ---------------
        with profiler.task(TaskCategory.GRAM):
            X_ij = gram(W_fac.local, transpose_first=True)       # line 9
        with profiler.collective(TaskCategory.ALL_REDUCE, comm):
            gram_w = comm.allreduce(X_ij, out=gram_w_buf)        # line 10
        with profiler.collective(TaskCategory.ALL_GATHER, grid.row_comm):
            W_i = W_fac.row_block(out=W_i_buf)                   # line 11
        wta_block = stream_reduce_scatter(                       # lines 12-13
            grid.col_comm,
            lambda t: mm.wt_a(W_i, panel_out(h_panels[t]), h_panels[t].start, h_panels[t].stop),
            h_scatter_counts,
            axis=1,
            out=wta_buf,
            profiler=profiler,
        )
        with profiler.task(TaskCategory.NLS):
            normal = regularization.normal_equations(gram_w, wta_block, W_fac.local.T)
            solver.solve(*normal, x0=H_fac.local, out=H_fac.local)  # line 14

        if loop.end_iteration(
            iteration, iter_start, W_fac.local, H_fac.local, wta_block, gram_w
        ):
            break

    return loop.rank_output(
        W_fac.local, H_fac.local, W_fac.global_range, H_fac.global_range, (m, n)
    )
