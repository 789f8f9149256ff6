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
 6    ``V_ij = A_ij H_jᵀ``                                     MM
 7    ``(A Hᵀ)_i = Σ_j V_ij``      (reduce-scatter, proc row)  Reduce-Scatter
 8    solve for ``(W_i)_j``                                    NLS
 9    ``X_ij = (W_i)_jᵀ (W_i)_j``                              Gram
10    ``Wᵀ W = Σ X_ij``            (all-reduce, all procs)     All-Reduce
11    collect ``W_i``              (all-gather, proc row)      All-Gather
12    ``Y_ij = W_iᵀ A_ij``                                     MM
13    ``(Wᵀ A)_j = Σ_i Y_ij``      (reduce-scatter, proc col)  Reduce-Scatter
14    solve for ``(H_j)_i``                                    NLS
====  ======================================================  ==============

The data matrix is never communicated; per iteration the algorithm moves
``O(min{√(mnk²/p), nk})`` words in ``O(log p)`` messages (Table 2), which is
optimal for dense ``A`` when ``k ≤ √(mn/p)`` (Theorem 5.1).

The 1D variant the paper benchmarks ("HPC-NMF-1D") is simply the grid
``pr = p, pc = 1``; nothing else changes.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.comm.communicator import Comm
from repro.comm.cost import CostLedger
from repro.comm.grid import ProcessGrid, choose_grid
from repro.comm.nonblocking import finish
from repro.comm.panels import panel_slices, stream_reduce_scatter
from repro.comm.profiler import Profiler, TaskCategory
from repro.core.config import Algorithm, NMFConfig
from repro.core.initialization import init_h_slice
from repro.core.local_ops import (
    gram,
    local_cross_term,
    matmul_a_ht,
    matmul_wt_a,
    transpose_into,
)
from repro.core.objective import objective_from_grams
from repro.core.observers import IterationObserver, LoopControl
from repro.core.result import NMFResult
from repro.dist.distmatrix import DistMatrix2D
from repro.dist.factors import DistributedFactorH, DistributedFactorW
from repro.dist.partition import block_counts
from repro.util.errors import CommunicatorError


def resolve_grid(config: NMFConfig, m: int, n: int, p: int) -> Tuple[int, int]:
    """Determine the processor grid for a run.

    Explicit ``config.grid`` wins; otherwise ``hpc1d`` forces ``(p, 1)`` and
    ``hpc2d`` applies the paper's grid-selection rule (§5).
    """
    if config.grid is not None:
        pr, pc = config.grid
        if pr * pc != p:
            raise CommunicatorError(
                f"requested grid {pr}x{pc} does not match {p} processes"
            )
        return pr, pc
    if config.algorithm == Algorithm.HPC_1D:
        return (p, 1)
    return choose_grid(m, n, p)


def hpc_nmf(
    comm: Comm,
    A,
    config: NMFConfig,
    block_generator: Optional[Callable] = None,
    global_shape: Optional[Tuple[int, int]] = None,
    observers: Optional[Sequence[IterationObserver]] = None,
) -> dict:
    """SPMD per-rank program for Algorithm 3.

    Parameters
    ----------
    comm:
        World communicator of ``p = pr * pc`` ranks.
    A:
        Global data matrix readable by every rank (each rank slices out its
        own ``A_ij``).  Pass ``None`` and supply ``block_generator`` +
        ``global_shape`` to build the local blocks without ever materialising
        the global matrix (the scalable path used by the measured benchmarks).
    config:
        Run options; the grid is resolved by :func:`resolve_grid`.
    block_generator:
        Optional ``generator(row_range, col_range, rank) -> block`` callable.
    global_shape:
        ``(m, n)``; required when ``A`` is ``None``.
    observers:
        Iteration observers, notified on rank 0 (see
        :mod:`repro.core.observers` for the SPMD dispatch rules).

    Returns
    -------
    dict with this rank's factor sub-blocks and diagnostics; combine with
    :func:`assemble_hpc_result`.
    """
    if A is None:
        if block_generator is None or global_shape is None:
            raise CommunicatorError(
                "either a global matrix A or (block_generator, global_shape) is required"
            )
        m, n = global_shape
    else:
        m, n = A.shape
    k = config.k
    p = comm.size

    pr, pc = resolve_grid(config, m, n, p)

    profiler = Profiler()
    solver = config.make_solver()

    grid = ProcessGrid(comm, pr, pc)
    if A is not None:
        data = DistMatrix2D.from_global(grid, A, storage=config.storage)
    else:
        data = DistMatrix2D.from_block_generator(
            grid, (m, n), block_generator, storage=config.storage
        )

    # Factor sub-blocks (Figure 2).  H is seeded identically to the sequential
    # reference; W starts empty (the first half-iteration computes it).
    H_fac = DistributedFactorH.zeros(grid, k, n)
    H_fac.local = init_h_slice(k, n, config.seed, H_fac.global_range)
    W_fac = DistributedFactorW.zeros(grid, m, k)

    norm_a_sq = data.frobenius_norm_squared()

    # Attach the cost ledger only now, after the setup-phase collectives
    # (grid construction, ||A||² reduction), so it records exactly the
    # per-iteration communication the paper's analysis covers.  The row and
    # column sub-communicators resolve the ledger dynamically through their
    # parent, so their collectives are recorded too.
    ledger = CostLedger()
    comm.attach_ledger(ledger)

    # Reduce-scatter block sizes: the m/pr rows of V_ij split pc ways, and the
    # n/pc columns of Y_ij split pr ways — exactly the (W_i)_j / (H_j)_i
    # sub-blocking, so each rank receives precisely its own sub-block.
    local_rows = data.row_range[1] - data.row_range[0]
    local_cols = data.col_range[1] - data.col_range[0]
    w_scatter_counts = block_counts(local_rows, pc)
    h_scatter_counts = block_counts(local_cols, pr)

    # The scatter boundaries also tile the line-6/line-12 matmuls: the rows
    # of V_ij bound for row-comm rank t come from the matching row panel of
    # A_ij, the columns of Y_ij for col-comm rank t from the matching column
    # panel.  Both schedules compute the MM panel-by-panel over these slices
    # (pre-cut once; for sparse CSR the column cut is the one real copy), so
    # panel streaming versus monolithic reduce-scatter is purely a schedule
    # choice — never a different GEMM rounding.
    w_slices = panel_slices(w_scatter_counts)
    h_slices = panel_slices(h_scatter_counts)
    a_row_panels = [data.block[s] for s in w_slices]
    a_col_panels = [data.block[:, s] for s in h_slices]

    # Reusable collective workspaces: every iteration runs the same
    # collectives on the same shapes, so their results are written into
    # persistent per-rank buffers instead of fresh allocations.  Each live
    # result gets its own named buffer (gram_w and gram_h_new are both k × k
    # but coexist in the error computation, so they must not share).
    ws = comm.workspace
    w_sub_rows = W_fac.global_range[1] - W_fac.global_range[0]
    h_sub_cols = H_fac.global_range[1] - H_fac.global_range[0]
    gram_h_buf = ws.get("gram_h", (k, k))
    gram_w_buf = ws.get("gram_w", (k, k))
    gram_h_new_buf = ws.get("gram_h_new", (k, k))
    H_j_buf = ws.get("H_j", (k, local_cols))
    W_i_buf = ws.get("W_i", (local_rows, k))
    aht_buf = ws.get("aht_block", (w_sub_rows, k))
    wta_buf = ws.get("wta_block", (k, h_sub_cols))
    # Assembly buffers for the blocking schedule's monolithic reduce-scatters
    # (the panel-streamed schedule never materialises the full MM output) and
    # the persistent home of W's local sub-block — the line-8 NLS returns
    # (W_i)_jᵀ, whose transpose is copied here instead of allocating a fresh
    # contiguous array every iteration.
    v_buf = ws.get("v_block", (local_rows, k))
    y_buf = ws.get("y_block", (k, local_cols))
    w_local_buf = ws.get("w_local", (w_sub_rows, k))
    # The line-8 NLS works on k × (m/p) operands.  It gets them C-ordered —
    # the reduce-scattered (A Hᵀ)_i turned into this buffer, and its own
    # previous (W_i)_jᵀ as the warm start — because the solvers sweep row by
    # row and copy a strided view before they start.
    aht_t_buf = ws.get("aht_block_t", (k, w_sub_rows))
    Wt_local = np.zeros((k, w_sub_rows))

    variant_name = "hpc1d" if config.algorithm == Algorithm.HPC_1D else "hpc2d"
    control = LoopControl(config, observers, comm=comm, variant=variant_name).start()

    # Gram cache across half-iterations: the error path's all-reduced H Hᵀ is
    # exactly the quantity lines 3-4 recompute next iteration (same local
    # grams, same rank-ordered reduction → same bits), so reusing it skips a
    # Gram and an all-reduce per iteration whenever the objective is tracked.
    # Every rank takes this branch in the same iterations, so the collective
    # schedule stays aligned.
    cached_gram_h = None

    # Pipelined schedule (config.overlap, see repro.comm.nonblocking): the
    # line-5 H_j gather is issued at the *end of the previous iteration* so it
    # overlaps the error path and lines 3-4; the line-4 all-reduce is issued
    # nonblocking and claimed only just before the line-8 NLS needs it; the
    # line-11 W_i gather is issued right after line 8 so it overlaps the
    # lines 9-10 Gram + all-reduce.  With config.panel_comm the line-7 and
    # line-13 reduce-scatters are additionally *panel-streamed*: each tiled
    # MM panel is issued as a nonblocking ireduce_scatter the moment it is
    # computed, so panel t's communication overlaps panel t+1's GEMM (see
    # repro.comm.panels).  Every schedule runs the same modeled collectives
    # the same number of times in the same program order on every rank, so
    # factors and cost ledgers stay byte-identical.
    pipeline = bool(config.overlap) and p > 1
    panel_stream = pipeline and bool(config.panel_comm)
    # Issuing iteration i+1's gather *before* iteration i's stopping decision
    # is only safe when the loop provably runs to max_iters (fixed iteration
    # count and nobody who can request an early stop).  Otherwise the gather
    # is issued after control.record declines to stop — a smaller overlap
    # window (the error path stays exposed) but the same collective count.
    speculative = pipeline and config.tol == 0 and not observers
    if pipeline:
        # Start the helper threads / shadow communicators now (collective),
        # so no setup cost or silent-split traffic lands inside the loop.
        for c in (comm, grid.row_comm, grid.col_comm):
            c.ensure_nonblocking()

    # Iteration 0's line-5 gather, issued before the loop (H is seeded).
    h_gather = H_fac.icol_block(out=H_j_buf) if pipeline else None

    # Deferred error path (speculative regime only): iteration i's gram_h_new
    # all-reduce stays in flight *across the iteration boundary* — it is next
    # iteration's gram_h via the cached_gram_h reuse — and is claimed just
    # before the line-8 NLS needs it, overlapping the cross-term reduction,
    # the line-5 gather wait and the whole line-6/7 panel stream.  Iteration
    # i's history record is deferred with it, which is safe exactly in the
    # speculative regime: tol == 0 and no observers means record() can never
    # request a stop, and records still happen in iteration order.
    pending = None

    def claim_pending():
        nonlocal pending, cached_gram_h
        gram_h_new = finish(pending["handle"], profiler, TaskCategory.ALL_REDUCE)
        objective = objective_from_grams(
            norm_a_sq, pending["cross"], pending["gram_w"], gram_h_new
        )
        rel_error = float(np.sqrt(objective / norm_a_sq)) if norm_a_sq > 0 else 0.0
        control.record(
            pending["iteration"],
            objective=objective,
            relative_error=rel_error,
            seconds=pending["seconds"],
        )
        cached_gram_h = gram_h_new
        pending = None
        return gram_h_new

    try:
        for iteration in range(config.max_iters):
            iter_start = time.perf_counter()

            # ---------------- Compute W given H (lines 3-8) ----------------
            gram_h = None
            gram_h_handle = None
            if pending is not None:
                pass  # gram_h arrives when the in-flight error path is claimed
            elif cached_gram_h is not None:
                gram_h = cached_gram_h
            else:
                with profiler.task(TaskCategory.GRAM):
                    U_ij = gram(H_fac.local, transpose_first=False)  # line 3
                if pipeline:
                    gram_h_handle = comm.iallreduce(U_ij, out=gram_h_buf)  # line 4
                else:
                    with profiler.task(TaskCategory.ALL_REDUCE):
                        gram_h = comm.allreduce(U_ij, out=gram_h_buf)  # line 4
            if h_gather is not None:
                H_j = finish(h_gather, profiler, TaskCategory.ALL_GATHER)  # line 5
                h_gather = None
            else:
                with profiler.task(TaskCategory.ALL_GATHER):
                    H_j = H_fac.col_block(out=H_j_buf)               # line 5
            Ht = H_j.T
            if panel_stream:
                aht_block = stream_reduce_scatter(                   # lines 6-7
                    grid.row_comm,
                    lambda t: matmul_a_ht(a_row_panels[t], Ht),
                    w_scatter_counts,
                    axis=0,
                    out=aht_buf,
                    profiler=profiler,
                )
            else:
                with profiler.task(TaskCategory.MM):
                    for t, s in enumerate(w_slices):                 # line 6
                        np.copyto(v_buf[s], matmul_a_ht(a_row_panels[t], Ht))
                with profiler.task(TaskCategory.REDUCE_SCATTER):
                    aht_block = grid.row_comm.reduce_scatter(        # line 7
                        v_buf, counts=w_scatter_counts, axis=0, out=aht_buf
                    )
            if pending is not None:
                gram_h = claim_pending()
            if gram_h_handle is not None:
                gram_h = finish(gram_h_handle, profiler, TaskCategory.ALL_REDUCE)
            with profiler.task(TaskCategory.NLS):
                Wt_local = solver.solve(                             # line 8
                    gram_h,
                    transpose_into(aht_block, aht_t_buf),
                    x0=Wt_local if np.any(Wt_local) else None,
                )
            np.copyto(w_local_buf, Wt_local.T)
            W_fac.local = w_local_buf

            # ---------------- Compute H given W (lines 9-14) ---------------
            # Pipelined: the line-11 gather starts now and overlaps 9-10.
            w_gather = W_fac.irow_block(out=W_i_buf) if pipeline else None
            with profiler.task(TaskCategory.GRAM):
                X_ij = gram(W_fac.local, transpose_first=True)       # line 9
            with profiler.task(TaskCategory.ALL_REDUCE):
                gram_w = comm.allreduce(X_ij, out=gram_w_buf)        # line 10
            if w_gather is not None:
                W_i = finish(w_gather, profiler, TaskCategory.ALL_GATHER)  # line 11
            else:
                with profiler.task(TaskCategory.ALL_GATHER):
                    W_i = W_fac.row_block(out=W_i_buf)               # line 11
            if panel_stream:
                wta_block = stream_reduce_scatter(                   # lines 12-13
                    grid.col_comm,
                    lambda t: matmul_wt_a(W_i, a_col_panels[t]),
                    h_scatter_counts,
                    axis=1,
                    out=wta_buf,
                    profiler=profiler,
                )
            else:
                with profiler.task(TaskCategory.MM):
                    for t, s in enumerate(h_slices):                 # line 12
                        np.copyto(y_buf[:, s], matmul_wt_a(W_i, a_col_panels[t]))
                with profiler.task(TaskCategory.REDUCE_SCATTER):
                    wta_block = grid.col_comm.reduce_scatter(        # line 13
                        y_buf, counts=h_scatter_counts, axis=1, out=wta_buf
                    )
            with profiler.task(TaskCategory.NLS):
                H_fac.local = solver.solve(gram_w, wta_block, x0=H_fac.local)  # line 14

            if speculative and iteration + 1 < config.max_iters:
                # Next iteration's line-5 gather overlaps the error path too.
                h_gather = H_fac.icol_block(out=H_j_buf)

            objective = rel_error = float("nan")
            if config.compute_error:
                with profiler.task(TaskCategory.GRAM):
                    local_gram_h = gram(H_fac.local, transpose_first=False)
                # Pipelined: issue the H-Gram all-reduce first so it overlaps
                # at least the cross-term reduction (and, speculatively, next
                # iteration's lines 5-7).  Same two all-reduces either way;
                # record=False + record_collective books the in-flight one at
                # the blocking schedule's program point (after the cross), so
                # the ledger's accumulation order stays schedule-invariant.
                gram_h_new_handle = (
                    comm.iallreduce(local_gram_h, out=gram_h_new_buf, record=False)
                    if pipeline
                    else None
                )
                with profiler.task(TaskCategory.ALL_REDUCE):
                    cross = comm.allreduce_scalar(
                        local_cross_term(wta_block, H_fac.local)
                    )
                if gram_h_new_handle is not None:
                    comm.record_collective(
                        "all_reduce",
                        local_gram_h.size * local_gram_h.itemsize / 8.0,
                    )
                if speculative and gram_h_new_handle is not None:
                    pending = {
                        "iteration": iteration,
                        "cross": cross,
                        "gram_w": gram_w,
                        "handle": gram_h_new_handle,
                        "seconds": time.perf_counter() - iter_start,
                    }
                    continue  # record() runs at the claim point
                if gram_h_new_handle is not None:
                    gram_h_new = finish(
                        gram_h_new_handle, profiler, TaskCategory.ALL_REDUCE
                    )
                else:
                    with profiler.task(TaskCategory.ALL_REDUCE):
                        gram_h_new = comm.allreduce(
                            local_gram_h, out=gram_h_new_buf
                        )
                cached_gram_h = gram_h_new
                objective = objective_from_grams(norm_a_sq, cross, gram_w, gram_h_new)
                rel_error = float(np.sqrt(objective / norm_a_sq)) if norm_a_sq > 0 else 0.0
            if control.record(
                iteration,
                objective=objective,
                relative_error=rel_error,
                seconds=time.perf_counter() - iter_start,
            ):
                break
            if pipeline and h_gather is None and iteration + 1 < config.max_iters:
                h_gather = H_fac.icol_block(out=H_j_buf)
        if pending is not None:
            # The final iteration's error path has no next iteration to hide
            # behind: claim it now and write its history record.
            claim_pending()
    finally:
        # Drain an unconsumed speculative gather or deferred error-path
        # all-reduce (only possible on an exception mid-iteration) so their
        # workspace buffers unpin, then stop the helper threads.  All no-ops
        # on the blocking schedule.
        if h_gather is not None:
            h_gather.wait()
        if pending is not None:
            pending["handle"].wait()
            pending = None
        for c in (grid.col_comm, grid.row_comm, comm):
            c.shutdown_nonblocking()

    return {
        "rank": comm.rank,
        "coords": grid.coords,
        "grid": (pr, pc),
        "W_local": W_fac.local,
        "H_local": H_fac.local,
        "w_range": W_fac.global_range,
        "h_range": H_fac.global_range,
        "history": control.history,
        "breakdown": profiler.snapshot(),
        "ledger": ledger,
        "iterations": control.iterations,
        "converged": control.converged,
        "shape": (m, n),
    }


def assemble_hpc_result(per_rank: list[dict], config: NMFConfig) -> NMFResult:
    """Combine the per-rank outputs of :func:`hpc_nmf` into a global result."""
    from repro.comm.profiler import max_over_ranks

    per_rank = sorted(per_rank, key=lambda d: d["rank"])
    m, n = per_rank[0]["shape"]
    k = config.k
    W = np.zeros((m, k))
    H = np.zeros((k, n))
    for entry in per_rank:
        lo, hi = entry["w_range"]
        W[lo:hi] = entry["W_local"]
        lo, hi = entry["h_range"]
        H[:, lo:hi] = entry["H_local"]
    return NMFResult(
        W=W,
        H=H,
        config=config,
        iterations=per_rank[0]["iterations"],
        history=per_rank[0]["history"],
        breakdown=max_over_ranks([e["breakdown"] for e in per_rank]),
        ledger_summary=per_rank[0]["ledger"].summary(),
        n_ranks=len(per_rank),
        grid_shape=per_rank[0]["grid"],
        converged=per_rank[0]["converged"],
        variant="hpc1d" if config.algorithm == Algorithm.HPC_1D else "hpc2d",
        backend=config.backend,
    )
