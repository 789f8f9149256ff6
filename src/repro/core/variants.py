"""The variant table: every NMF flavor behind the :func:`repro.fit` front door.

Algorithms 1–3 are one ANLS framework that differs only in how products and
factors are distributed (§3–§4), so a variant is a row, not a class: a name,
what it runs, and the two capabilities the front door enforces.  Seven rows:

* ``sequential`` — Algorithm 1, the ANLS reference: Algorithm 3 on a 1 × 1
  grid over :class:`~repro.comm.communicator.SelfComm`, in process;
* ``naive`` — Algorithm 2, on ``config.n_ranks`` ranks of ``config.backend``;
* ``hpc1d`` / ``hpc2d`` — Algorithm 3 on the grid ``(p, 1)`` / on
  ``config.grid`` (the §5 rule when unset);
* ``regularized`` — Algorithm 3 with ridge / L1 penalties at lines 8 and 14,
  at any ``p``;
* ``symmetric`` — SymNMF ``S ≈ G Gᵀ``: Algorithm 3 on a 1 × 1 grid with a
  symmetry penalty;
* ``streaming`` — sliding-window incremental NMF over the columns of ``A``.

Each ``run`` is a plain function ``run(A, config, observers, **options)``
returning an :class:`~repro.core.result.NMFResult`; ``options`` lists the
keywords beyond the :class:`~repro.core.config.NMFConfig` fields it accepts.
``parallelizable`` rows run on ``n_ranks > 1``; ``sparse_ok`` rows accept
``scipy.sparse`` input.  The planner (:mod:`repro.plan.planner`) prices
``sequential``, ``naive``, ``hpc1d`` and ``hpc2d`` itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import NMFConfig
from repro.core.hpc_nmf import hpc_nmf
from repro.core.naive import naive_parallel_nmf
from repro.core.observers import LoopControl, notify_finish
from repro.core.regularized import Regularization
from repro.core.result import NMFResult
from repro.core.spmd_loop import run_in_process, run_on_backend, run_on_self
from repro.core.streaming import StreamingNMF
from repro.core.symmetric import SymmetryPenalty, SymNMFResult
from repro.util.errors import ShapeError
from repro.util.validation import check_nonnegative_matrix, check_rank


@dataclass(frozen=True)
class Variant:
    """One NMF flavor: its name, display label, what it runs and accepts."""

    name: str
    label: str
    summary: str
    run: Callable[..., NMFResult]
    parallelizable: bool
    sparse_ok: bool
    options: Tuple[str, ...] = ()


def _sequential(A, config: NMFConfig, observers=()) -> NMFResult:
    return run_in_process(
        hpc_nmf, A, config.with_options(n_ranks=1), observers, "sequential"
    )


def _naive(A, config: NMFConfig, observers=()) -> NMFResult:
    return run_on_backend(naive_parallel_nmf, A, config, observers, "naive")


def _hpc1d(A, config: NMFConfig, observers=()) -> NMFResult:
    config = config.with_options(grid=config.grid or (config.n_ranks, 1))
    return run_on_backend(hpc_nmf, A, config, observers, "hpc1d")


def _hpc2d(A, config: NMFConfig, observers=()) -> NMFResult:
    return run_on_backend(hpc_nmf, A, config, observers, "hpc2d")


def _regularized(
    A,
    config: NMFConfig,
    observers=(),
    regularization: Optional[Regularization] = None,
    frobenius: float = 0.0,
    l1: float = 0.0,
) -> NMFResult:
    """Pass a full ``regularization=Regularization(...)`` or the weights."""
    if regularization is not None and (frobenius or l1):
        raise TypeError(
            "pass either regularization=Regularization(...) or the "
            "frobenius=/l1= weights, not both"
        )
    if regularization is None:
        regularization = Regularization(frobenius=frobenius, l1=l1)
    run = run_in_process if config.n_ranks == 1 else run_on_backend
    return run(hpc_nmf, A, config, observers, "regularized", regularization=regularization)


def _symmetric(A, config: NMFConfig, observers=(), alpha: Optional[float] = None) -> SymNMFResult:
    """SymNMF of ``A`` read as a similarity matrix.

    Square input is symmetrized as ``(S + Sᵀ)/2`` (the co-linkage similarity
    of a directed graph); rectangular ``m × n`` input is first reduced to the
    ``n × n`` column co-occurrence similarity ``AᵀA``, the bipartite-graph
    reading of a word-document or pixel-frame matrix.  ``alpha`` weighs the
    symmetry penalty; ``None`` applies the ``max(S)²`` heuristic of the
    SymNMF literature.
    """
    S = check_nonnegative_matrix(A, "A")
    if S.shape[0] != S.shape[1]:
        S = S.T @ S
        if not isinstance(S, np.ndarray):
            S = S.tocsr()  # a sparse AᵀA is CSC; the loop takes CSR, as check_matrix gives
    check_rank(config.k, *S.shape)
    S = (S + S.T) * 0.5
    if alpha is None:
        alpha = max(float(S.max()) ** 2, 1.0)
    if alpha < 0:
        raise ShapeError(f"alpha must be nonnegative, got {alpha}")
    result = run_on_self(
        hpc_nmf, S, config, observers, "symmetric", regularization=SymmetryPenalty(alpha)
    )
    G = np.ascontiguousarray(0.5 * (result.W + result.H.T))
    sym = SymNMFResult(**{**vars(result), "W": G, "H": np.ascontiguousarray(G.T)}, alpha=alpha)
    return notify_finish(observers, sym)


def _streaming(
    A,
    config: NMFConfig,
    observers=(),
    window: Optional[int] = None,
    refresh_every: int = 10,
    refresh_iters: int = 2,
) -> NMFResult:
    """Replay the columns of ``A`` as a frame stream through :class:`StreamingNMF`.

    Each column is one frame and one observer event; the result's ``W`` is
    the final basis and ``H`` the coefficients of the last ``window`` frames
    (default ``min(n, 60)``).  The stream length is the data, so
    ``config.max_iters`` does not apply (``refresh_iters`` is the depth of the
    warm-started ANLS refresh run every ``refresh_every`` frames);
    ``config.tol`` and observers still stop it early, and
    ``compute_error=False`` skips the per-frame window error.  ``breakdown``
    sums the refreshes' profiles.  For a live feed, drive
    :class:`StreamingNMF` directly.
    """
    A = check_nonnegative_matrix(A, "A")
    m, n = A.shape
    if n < 2:
        raise ShapeError(f"streaming needs at least 2 frames (columns), got {n}")
    model = StreamingNMF(
        n_pixels=m,
        k=config.k,
        window=min(window if window is not None else 60, n),
        refresh_every=refresh_every,
        refresh_iters=refresh_iters,
        solver=config.solver,
        seed=config.seed,
    )
    control = LoopControl(config, observers, variant="streaming").start()
    for frame_idx in range(n):
        start = time.perf_counter()
        model.push_frame(A[:, frame_idx])
        rel_error = model.window_error() if config.compute_error else float("nan")
        if control.record(
            frame_idx,
            relative_error=rel_error,
            seconds=time.perf_counter() - start,
            factors=(model.W, model.current_coefficients()),
        ):
            break
    result = NMFResult(
        W=np.ascontiguousarray(model.W),
        H=np.ascontiguousarray(model.current_coefficients()),
        config=config,
        iterations=control.iterations,
        history=control.history,
        converged=control.converged,
        variant="streaming",
        breakdown=model.breakdown,
    )
    return notify_finish(observers, result)


VARIANTS: Dict[str, Variant] = {
    v.name: v
    for v in (
        Variant("sequential", "Sequential", "Algorithm 1: sequential ANLS reference",
                _sequential, parallelizable=False, sparse_ok=True),
        Variant("naive", "Naive",
                "Algorithm 2: Naive-Parallel-NMF baseline ((m+n)k words/iter)",
                _naive, parallelizable=True, sparse_ok=True),
        Variant("hpc1d", "HPC-NMF-1D", "Algorithm 3 on a 1D grid (pr = p, pc = 1)",
                _hpc1d, parallelizable=True, sparse_ok=True),
        Variant("hpc2d", "HPC-NMF-2D", "Algorithm 3: HPC-NMF on the §5-selected pr x pc grid",
                _hpc2d, parallelizable=True, sparse_ok=True),
        Variant("regularized", "regularized",
                "Ridge/L1-regularized ANLS (Algorithm 3's communication at any p)",
                _regularized, parallelizable=True, sparse_ok=True,
                options=("regularization", "frobenius", "l1")),
        Variant("symmetric", "symmetric", "Symmetric NMF (S = G G^T) for graph clustering",
                _symmetric, parallelizable=False, sparse_ok=True, options=("alpha",)),
        Variant("streaming", "streaming", "Sliding-window incremental NMF over the columns of A",
                _streaming, parallelizable=False, sparse_ok=False,
                options=("window", "refresh_every", "refresh_iters")),
    )
}


def available_variants() -> List[str]:
    """Names accepted by :func:`get_variant` (and by ``repro.fit(variant=...)``).

    >>> available_variants()
    ['hpc1d', 'hpc2d', 'naive', 'regularized', 'sequential', 'streaming', 'symmetric']
    """
    return sorted(VARIANTS)


def get_variant(name: str) -> Variant:
    """The row named ``name`` (case-insensitive).

    >>> get_variant("HPC2D").parallelizable
    True
    """
    try:
        return VARIANTS[str(name).lower()]
    except KeyError:
        raise KeyError(
            f"unknown variant {name!r}; available variants: {available_variants()}"
        ) from None
