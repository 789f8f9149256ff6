"""Algorithm 1: the sequential ANLS framework (correctness reference).

The parallel algorithms are validated against this implementation: with the
same seed and the same local solver they must produce the same factors up to
floating-point reordering.

The W-subproblem ``min_{W>=0} ||A − W H||`` is solved through its normal
equations ``(H Hᵀ) Wᵀ = H Aᵀ`` — i.e. the solver is handed ``gram = H Hᵀ``
and ``rhs = (A Hᵀ)ᵀ`` and returns ``Wᵀ``; likewise the H-subproblem uses
``gram = Wᵀ W`` and ``rhs = Wᵀ A``.  This is exactly the data layout the
distributed algorithms assemble with their collectives, so the same solver
object is reused verbatim there.

The ``overlap`` option is a no-op here, as it is everywhere
(:class:`~repro.core.config.NMFConfig`).
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

import numpy as np

from repro.comm.profiler import Profiler, TaskCategory
from repro.core.config import NMFConfig
from repro.core.initialization import init_h_global
from repro.core.local_ops import BlockProducts, gram
from repro.core.objective import frobenius_norm_squared, objective_from_grams
from repro.core.observers import CallbackObserver, IterationObserver, LoopControl
from repro.core.result import NMFResult
from repro.util.validation import check_matrix, check_nonnegative, check_rank


def anls_nmf(
    A,
    config: NMFConfig,
    callback: Optional[Callable[[int, float], None]] = None,
    observers: Optional[Sequence[IterationObserver]] = None,
) -> NMFResult:
    """Run sequential ANLS NMF (Algorithm 1) on a dense or sparse matrix ``A``.

    Parameters
    ----------
    A:
        ``m × n`` nonnegative matrix (ndarray or scipy sparse).
    config:
        Run options; the parallel-execution fields (``n_ranks``, ``grid``,
        ``backend``, ``overlap``) are ignored.
    callback:
        Optional ``callback(iteration, relative_error)`` invoked after each
        iteration when error computation is enabled.  Deprecated spelling of
        ``observers=[CallbackObserver(callback)]``.
    observers:
        :class:`~repro.core.observers.IterationObserver` objects notified
        after every outer iteration; any of them may request an early stop.

    Returns
    -------
    NMFResult
        With factors ``W (m × k)`` and ``H (k × n)`` and, when
        ``config.compute_error`` is set, the per-iteration objective history.
    """
    A = check_matrix(A, "A")
    check_nonnegative(A, "A")
    m, n = A.shape
    k = check_rank(config.k, m, n)

    solver = config.make_solver()
    profiler = Profiler()

    # The iterates live in these two arrays for the whole fit: each solve
    # writes its solution over its own warm start.  The two MM products share
    # one right-hand-side buffer (H Aᵀ is dead once Wᵀ is solved for), so in
    # steady state an iteration allocates only its k × k Grams.
    H = init_h_global(k, n, config.seed)
    Wt = np.zeros((k, m))
    rhs = np.empty(k * max(m, n))
    products = BlockProducts(A, k)
    norm_a_sq = frobenius_norm_squared(A)

    observer_list = list(observers or ())
    if callback is not None:
        observer_list.append(CallbackObserver(callback))
    control = LoopControl(config, observer_list, variant="sequential").start()

    # Gram cache across ANLS half-iterations: when the error path computes
    # H Hᵀ for the objective, the next iteration's W-update reuses it
    # bit-for-bit instead of recomputing the same product.
    cached_gram_h = None

    for iteration in range(config.max_iters):
        iter_start = time.perf_counter()

        # --- W-update: argmin_W ||A - W H|| via (H Hᵀ) Wᵀ = H Aᵀ -----------
        if cached_gram_h is not None:
            gram_h = cached_gram_h
        else:
            with profiler.task(TaskCategory.GRAM):
                gram_h = gram(H, transpose_first=False)  # H Hᵀ, k × k
        with profiler.task(TaskCategory.MM):
            products.set_h(H)
            h_at = products.h_at(rhs[:k * m].reshape(k, m))  # H Aᵀ, k × m
        with profiler.task(TaskCategory.NLS):
            solver.solve(gram_h, h_at, x0=Wt if np.any(Wt) else None, out=Wt)
        W = Wt.T

        # --- H-update: argmin_H ||A - W H|| via (Wᵀ W) H = Wᵀ A ------------
        with profiler.task(TaskCategory.GRAM):
            gram_w = gram(W, transpose_first=True)   # Wᵀ W, k × k
        with profiler.task(TaskCategory.MM):
            wt_a = products.wt_a(W, rhs[:k * n].reshape(k, n))  # Wᵀ A, k × n
        with profiler.task(TaskCategory.NLS):
            solver.solve(gram_w, wt_a, x0=H, out=H)

        objective = rel_error = float("nan")
        if config.compute_error:
            # Gram trick: the cross term reuses Wᵀ A and the new H.
            cross = float(np.vdot(wt_a, H))
            with profiler.task(TaskCategory.GRAM):
                gram_h_new = gram(H, transpose_first=False)
            cached_gram_h = gram_h_new
            objective = objective_from_grams(norm_a_sq, cross, gram_w, gram_h_new)
            rel_error = float(np.sqrt(objective / norm_a_sq)) if norm_a_sq > 0 else 0.0
        if control.record(
            iteration,
            objective=objective,
            relative_error=rel_error,
            seconds=time.perf_counter() - iter_start,
            factors=(W, H),
        ):
            break

    del products, rhs, h_at, wt_a  # release the loop's buffers before W is copied
    result = NMFResult(
        W=np.ascontiguousarray(W),
        H=np.ascontiguousarray(H),
        config=config,
        iterations=control.iterations,
        history=control.history,
        breakdown=profiler.snapshot(),
        n_ranks=1,
        grid_shape=None,
        converged=control.converged,
        variant="sequential",
    )
    return control.finish(result)
