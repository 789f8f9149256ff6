"""Algorithm 2: Naive-Parallel-NMF.

This is the baseline the paper compares against (attributed to Fairbanks et
al. [5]): each of the ``p`` processors owns a *row* block ``A_i (m/p × n)`` of
the data and a *column* block ``A^i (m × n/p)`` (the data is stored twice), a
row block ``W_i (m/p × k)`` and a column block ``H^i (k × n/p)``.

Per iteration (lines 3-6 of Algorithm 2):

1. all-gather the full ``H`` (``k × n``) on every processor,
2. locally compute ``H Hᵀ`` (redundantly on every processor), ``A_i Hᵀ``, and
   solve the NLS problem for ``W_i``,
3. all-gather the full ``W`` (``m × k``) on every processor,
4. locally compute ``Wᵀ W`` (redundantly), ``Wᵀ A^i``, and solve for ``H^i``.

The communication volume is ``(m + n) k`` words per iteration (the two
all-gathers of whole factor matrices) regardless of sparsity — the quantity
HPC-NMF improves to ``O(min{√(mnk²/p), nk})``.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.comm.communicator import Comm
from repro.comm.profiler import TaskCategory
from repro.core.config import NMFConfig
from repro.core.initialization import init_h_slice
from repro.core.local_ops import BlockProducts, gram
from repro.core.observers import IterationObserver
from repro.core.spmd_loop import SpmdLoop
from repro.dist.distmatrix import _local_norm_squared, cut_block
from repro.dist.partition import block_range


def naive_parallel_nmf(
    comm: Comm,
    A,
    config: NMFConfig,
    observers: Optional[Sequence[IterationObserver]] = None,
    variant: str = "naive",
) -> dict:
    """SPMD per-rank program for Algorithm 2.

    Parameters
    ----------
    comm:
        The world communicator (``p`` ranks).
    A:
        The global data matrix, readable by every rank (each rank slices out
        only its own row and column blocks; nothing is communicated).
    config:
        Run options; ``config.solver`` selects the local NLS method.
    observers:
        Iteration observers, notified on rank 0 (see
        :mod:`repro.core.observers` for the SPMD dispatch rules).
    variant:
        Registry name of the variant running this program (provenance for
        the result and the observers).

    Returns
    -------
    dict with this rank's factor blocks and diagnostics; assemble a global
    :class:`~repro.core.result.NMFResult` with
    :func:`repro.core.spmd_loop.assemble_result`.
    """
    p, rank = comm.size, comm.rank
    m, n = A.shape
    k = config.k

    solver = config.make_solver()

    # Rank i's row block A_i and column block Aⁱ: the data is deliberately
    # stored twice, one of the inefficiencies HPC-NMF removes.
    row_lo, row_hi = block_range(m, p, rank)
    col_lo, col_hi = block_range(n, p, rank)
    row_block = cut_block(A, (row_lo, row_hi), (0, n))
    col_block = cut_block(A, (0, m), (col_lo, col_hi))

    # Same-seed initialisation (§6.1.3): every rank slices the same global H.
    H_local = init_h_slice(k, n, config.seed, (col_lo, col_hi))

    norm_a_sq = comm.allreduce_scalar(_local_norm_squared(row_block))

    # Reusable collective workspaces: the two factor all-gathers hit the same
    # shapes every iteration, so their results land in persistent per-rank
    # buffers instead of fresh allocations (§4.3's (m+n)k words are still
    # *communicated*, the ledger is unaffected — only the receive-side
    # allocation churn goes away).
    ws = comm.workspace
    H_full_buf = ws.get("H_full", (k, n))
    W_full_buf = ws.get("W_full", (m, k))
    # The W-update NLS gets C-ordered k × (m/p) operands (see hpc_nmf): the MM
    # writes (A_i Hᵀ)ᵀ into the front of the flat rhs buffer (which holds
    # Wᵀ Aⁱ later in the iteration) and its own previous W_iᵀ is the warm
    # start (from iteration 1 on, unless all zero) and the solution's home;
    # the solution is turned into W's persistent C-ordered home.
    rows, cols = row_hi - row_lo, col_hi - col_lo
    rhs_buf = ws.get("rhs", k * max(rows, cols))
    W_local = ws.get("w_local", (rows, k))
    Wt_local = np.empty((k, rows))
    mm_rows = BlockProducts(row_block, k)   # line 6: A_i Hᵀ
    mm_cols = BlockProducts(col_block, k)   # line 12: Wᵀ Aⁱ

    # Attaches the ledger after the setup-phase reduction, so it records only
    # the per-iteration communication (§4.3's (m+n)k words of all-gather).
    loop = SpmdLoop(comm, config, observers, variant, (p, 1), norm_a_sq)
    profiler = loop.profiler

    # The tracked objective's H Hᵀ (all-reduced from the per-rank pieces) is
    # reused as the next iteration's gram_h — the same quantity, up to
    # summation order, that every rank would otherwise recompute redundantly
    # from the gathered H (one of §4.3's O(nk²) Grams).
    for iteration in range(config.max_iters):
        iter_start = time.perf_counter()

        # --- Compute W given H (lines 3-4) ----------------------------
        with profiler.collective(TaskCategory.ALL_GATHER, comm):
            H = comm.allgatherv(H_local, axis=1, out=H_full_buf)  # full k × n
        gram_h = loop.gram_h
        if gram_h is None:
            with profiler.task(TaskCategory.GRAM):
                gram_h = gram(H, transpose_first=False)  # redundant on every rank
        with profiler.task(TaskCategory.MM):
            mm_rows.set_h(H)
            h_at = mm_rows.h_at(rhs_buf[:k * rows].reshape(k, rows))  # k × (m/p)
        with profiler.task(TaskCategory.NLS):
            warm = iteration and np.any(Wt_local)
            solver.solve(gram_h, h_at, x0=Wt_local if warm else None, out=Wt_local)
        np.copyto(W_local, Wt_local.T)

        # --- Compute H given W (lines 5-6) ----------------------------
        with profiler.collective(TaskCategory.ALL_GATHER, comm):
            W = comm.allgatherv(W_local, axis=0, out=W_full_buf)  # full m × k
        with profiler.task(TaskCategory.GRAM):
            gram_w = gram(W, transpose_first=True)       # redundant on every rank
        with profiler.task(TaskCategory.MM):
            wt_a = mm_cols.wt_a(W, rhs_buf[:k * cols].reshape(k, cols))  # k × (n/p)
        with profiler.task(TaskCategory.NLS):
            solver.solve(gram_w, wt_a, x0=H_local, out=H_local)

        if loop.end_iteration(iteration, iter_start, W_local, H_local, wt_a, gram_w):
            break

    return loop.rank_output(W_local, H_local, (row_lo, row_hi), (col_lo, col_hi), (m, n))
