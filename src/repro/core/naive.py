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
from repro.comm.cost import CostLedger
from repro.comm.nonblocking import finish
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
from repro.dist.distmatrix import DoublePartitioned1D


def naive_parallel_nmf(
    comm: Comm,
    A,
    config: NMFConfig,
    observers: Optional[Sequence[IterationObserver]] = None,
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

    Returns
    -------
    dict with this rank's factor blocks and diagnostics; assemble a global
    :class:`~repro.core.result.NMFResult` with :func:`assemble_naive_result`.
    """
    p, rank = comm.size, comm.rank
    m, n = A.shape
    k = config.k

    profiler = Profiler()
    solver = config.make_solver()

    data = DoublePartitioned1D.from_global(rank, p, A)
    row_lo, row_hi = data.row_range
    col_lo, col_hi = data.col_range

    # Same-seed initialisation (§6.1.3): every rank slices the same global H.
    H_local = init_h_slice(k, n, config.seed, (col_lo, col_hi))
    W_local = np.zeros((row_hi - row_lo, k))

    norm_a_sq_local = (
        float(data.row_block.data @ data.row_block.data)
        if data.is_sparse
        else float(np.vdot(data.row_block, data.row_block))
    )
    norm_a_sq = comm.allreduce_scalar(norm_a_sq_local)

    # Attach the ledger after the setup-phase reduction so it records only the
    # per-iteration communication (§4.3's (m+n)k words of all-gather).
    ledger = CostLedger()
    comm.attach_ledger(ledger)

    control = LoopControl(config, observers, comm=comm, variant="naive").start()

    # Reusable collective workspaces: the two factor all-gathers and the
    # error-path Gram all-reduce hit the same shapes every iteration, so
    # their results land in persistent per-rank buffers instead of fresh
    # allocations (§4.3's (m+n)k words are still *communicated*, the ledger
    # is unaffected — only the receive-side allocation churn goes away).
    ws = comm.workspace
    H_full_buf = ws.get("H_full", (k, n))
    W_full_buf = ws.get("W_full", (m, k))
    gram_h_new_buf = ws.get("gram_h_new", (k, k))
    # The W-update NLS gets C-ordered k × (m/p) operands (see hpc_nmf): A_i Hᵀ
    # turned into a_ht_t_buf and its own previous W_iᵀ as the warm start; the
    # solution is turned back into W's persistent C-ordered home.
    a_ht_t_buf = ws.get("a_ht_t", (k, row_hi - row_lo))
    w_local_buf = ws.get("w_local", (row_hi - row_lo, k))
    Wt_local = np.zeros((k, row_hi - row_lo))

    # Gram cache across half-iterations: the error path already all-reduces
    # H Hᵀ from the per-rank pieces, which is the same quantity (up to
    # summation order — within solver tolerance) that the next iteration
    # recomputes redundantly from the gathered H.  Reusing it removes one of
    # §4.3's redundant O(nk²) per-rank Grams whenever the objective is
    # tracked; every rank takes the branch in the same iterations.
    cached_gram_h = None

    # Pipelined schedule (config.overlap): the line-3 H all-gather of
    # iteration i+1 is issued right after iteration i's line-6 NLS, hiding it
    # behind the error path.  The W gather stays blocking — its result is
    # consumed immediately by the line-5 Gram, so there is nothing to overlap
    # it with.  Same collectives, same program order, same count on every
    # rank → byte-identical factors and ledgers (see repro.comm.nonblocking).
    pipeline = bool(config.overlap) and p > 1
    # Speculative issue before the stopping decision is only safe when the
    # loop provably runs all max_iters iterations (see hpc_nmf).
    speculative = pipeline and config.tol == 0 and not observers
    if pipeline:
        comm.ensure_nonblocking()
    h_gather = comm.iallgatherv(H_local, axis=1, out=H_full_buf) if pipeline else None

    # Deferred error path (speculative regime only, twin of hpc_nmf): the
    # H-Gram all-reduce stays in flight across the iteration boundary — its
    # result is next iteration's gram_h via the cached_gram_h reuse — and is
    # claimed just before the line-4 NLS, overlapping the cross-term
    # reduction, the gather wait and the A_i Hᵀ matmul.  The history record
    # travels with it, which is safe because tol == 0 with no observers means
    # record() can never request a stop.
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

            # --- Compute W given H (lines 3-4) ----------------------------
            if h_gather is not None:
                H = finish(h_gather, profiler, TaskCategory.ALL_GATHER)  # full k × n
                h_gather = None
            else:
                with profiler.task(TaskCategory.ALL_GATHER):
                    H = comm.allgatherv(H_local, axis=1, out=H_full_buf)  # full k × n
            gram_h = None
            if pending is not None:
                pass  # gram_h arrives when the in-flight error path is claimed
            elif cached_gram_h is not None:
                gram_h = cached_gram_h
            else:
                with profiler.task(TaskCategory.GRAM):
                    gram_h = gram(H, transpose_first=False)  # redundant on every rank
            with profiler.task(TaskCategory.MM):
                a_ht = matmul_a_ht(data.row_block, H.T)      # (m/p) × k
            if pending is not None:
                gram_h = claim_pending()
            with profiler.task(TaskCategory.NLS):
                Wt_local = solver.solve(
                    gram_h,
                    transpose_into(a_ht, a_ht_t_buf),
                    x0=Wt_local if np.any(Wt_local) else None,
                )
            np.copyto(w_local_buf, Wt_local.T)
            W_local = w_local_buf

            # --- Compute H given W (lines 5-6) ----------------------------
            with profiler.task(TaskCategory.ALL_GATHER):
                W = comm.allgatherv(W_local, axis=0, out=W_full_buf)  # full m × k
            with profiler.task(TaskCategory.GRAM):
                gram_w = gram(W, transpose_first=True)       # redundant on every rank
            with profiler.task(TaskCategory.MM):
                wt_a = matmul_wt_a(W, data.col_block)        # k × (n/p)
            with profiler.task(TaskCategory.NLS):
                H_local = solver.solve(gram_w, wt_a, x0=H_local)

            if speculative and iteration + 1 < config.max_iters:
                # Next iteration's line-3 gather overlaps the error path.
                h_gather = comm.iallgatherv(H_local, axis=1, out=H_full_buf)

            objective = rel_error = float("nan")
            if config.compute_error:
                # Gram trick with distributed pieces: cross term and H-Gram are
                # summed over ranks with small all-reduces.
                with profiler.task(TaskCategory.GRAM):
                    local_gram_h = gram(H_local, transpose_first=False)
                # Pipelined: issue the H-Gram all-reduce first so it overlaps
                # at least the cross-term reduction (and, speculatively, next
                # iteration's gather + matmul).  Same collectives either way;
                # record=False + record_collective books the in-flight one at
                # the blocking schedule's program point (after the cross), so
                # the ledger's accumulation order stays schedule-invariant.
                gram_h_new_handle = (
                    comm.iallreduce(local_gram_h, out=gram_h_new_buf, record=False)
                    if pipeline
                    else None
                )
                with profiler.task(TaskCategory.ALL_REDUCE):
                    cross = comm.allreduce_scalar(local_cross_term(wt_a, H_local))
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
                h_gather = comm.iallgatherv(H_local, axis=1, out=H_full_buf)
        if pending is not None:
            # The final iteration's error path has no next iteration to hide
            # behind: claim it now and write its history record.
            claim_pending()
    finally:
        if h_gather is not None:
            h_gather.wait()
        if pending is not None:
            pending["handle"].wait()
            pending = None
        comm.shutdown_nonblocking()

    return {
        "rank": rank,
        "W_local": W_local,
        "H_local": H_local,
        "w_range": (row_lo, row_hi),
        "h_range": (col_lo, col_hi),
        "history": control.history,
        "breakdown": profiler.snapshot(),
        "ledger": ledger,
        "iterations": control.iterations,
        "converged": control.converged,
        "shape": (m, n),
    }


def assemble_naive_result(per_rank: list[dict], config: NMFConfig) -> NMFResult:
    """Combine the per-rank outputs of :func:`naive_parallel_nmf` into one result."""
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
        config=config.with_options(algorithm=Algorithm.NAIVE),
        iterations=per_rank[0]["iterations"],
        history=per_rank[0]["history"],
        breakdown=max_over_ranks([e["breakdown"] for e in per_rank]),
        ledger_summary=per_rank[0]["ledger"].summary(),
        n_ranks=len(per_rank),
        grid_shape=(len(per_rank), 1),
        converged=per_rank[0]["converged"],
        variant="naive",
        backend=config.backend,
    )
