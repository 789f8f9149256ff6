"""Symmetric NMF for graph clustering (the Kuang–Ding–Park formulation).

The paper's Webbase experiment motivates NMF on graph adjacency matrices for
cluster discovery and cites "Symmetric nonnegative matrix factorization for
graph clustering" (its reference [13]).  For an (approximately) symmetric
similarity matrix ``S`` the natural model is

    min_{G >= 0}  ‖S − G Gᵀ‖_F²,       G ∈ R^{n×k}_+,

whose columns act as soft cluster indicators.  A simple and robust way to
compute it — and the one implemented here — is the penalized ANLS relaxation:
factorize ``S ≈ W H`` with the extra penalty ``α ‖W − Hᵀ‖_F²`` that pulls the
two factors together, then return their symmetrized average.  Each subproblem
remains an NLS problem in normal-equations form:

    W-step:  gram = H Hᵀ + α I,   rhs = (S Hᵀ + α Hᵀ)ᵀ
    H-step:  gram = Wᵀ W + α I,   rhs = Wᵀ S + α Wᵀ

so the same local solvers (and, unchanged, the same parallel framework) apply.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.config import NMFConfig
from repro.core.local_ops import gram, matmul_h_at, matmul_wt_a
from repro.core.initialization import init_h_global
from repro.core.objective import frobenius_norm_squared
from repro.core.observers import IterationObserver, LoopControl
from repro.core.result import NMFResult
from repro.util.errors import ShapeError
from repro.util.validation import check_matrix, check_nonnegative, check_rank, is_sparse


@dataclass
class SymNMFResult(NMFResult):
    """Result of a symmetric NMF run: an :class:`NMFResult` with ``H = Gᵀ``.

    The factors satisfy ``W = G`` and ``H = Gᵀ``, so ``reconstruction()`` is
    the symmetric model ``G Gᵀ``; :attr:`G`, :attr:`labels` and
    :meth:`cluster_sizes` expose the clustering view.  The per-iteration
    ``history`` records the penalized objective, so the legacy
    ``objective_history`` accessor keeps working through the base class.
    """

    alpha: float = 0.0

    @property
    def G(self) -> np.ndarray:
        """The ``n × k`` soft cluster indicator matrix (alias of ``W``)."""
        return self.W

    @property
    def labels(self) -> np.ndarray:
        """Hard cluster assignment: the dominant column of G per node."""
        return np.argmax(self.G, axis=1)

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.G.shape[1])


def symmetric_nmf(
    S,
    k: int,
    *,
    alpha: Optional[float] = None,
    max_iters: int = 50,
    solver: str = "bpp",
    seed: int = 0,
    observers: Optional[Sequence[IterationObserver]] = None,
    config: Optional[NMFConfig] = None,
) -> SymNMFResult:
    """Compute a rank-``k`` symmetric NMF of a similarity/adjacency matrix ``S``.

    Parameters
    ----------
    S:
        Square nonnegative matrix (dense or sparse).  It is symmetrized as
        ``(S + Sᵀ)/2`` — for a directed graph this is the standard
        co-linkage similarity.
    k:
        Number of clusters.
    alpha:
        Symmetry-penalty weight; ``None`` uses ``max(S)²`` (the heuristic from
        the SymNMF literature).
    max_iters, solver, seed:
        As for ordinary NMF.
    observers:
        Iteration observers (see :mod:`repro.core.observers`); events carry
        the penalized objective and the relative residual of ``S ≈ G Gᵀ``.
    config:
        Full :class:`NMFConfig`; when given it supersedes
        ``max_iters``/``solver``/``seed`` and its ``tol``, ``compute_error``
        and ``inner_iters`` fields are honoured too (``fit(variant=
        "symmetric")`` passes the run's config through this path).

    Returns
    -------
    SymNMFResult with the indicator matrix ``G`` and hard cluster labels.
    """
    S = check_matrix(S, "S")
    check_nonnegative(S, "S")
    n1, n2 = S.shape
    if n1 != n2:
        raise ShapeError(f"symmetric NMF needs a square matrix, got {S.shape}")
    check_rank(k, n1, n2)

    # Symmetrize (cheap for both dense and CSR).
    S = (S + S.T) * 0.5

    if alpha is None:
        max_entry = float(S.data.max()) if is_sparse(S) and S.nnz else float(np.max(S)) if not is_sparse(S) else 0.0
        alpha = max(max_entry**2, 1.0)
    if alpha < 0:
        raise ShapeError(f"alpha must be nonnegative, got {alpha}")

    if config is None:
        config = NMFConfig(k=k, max_iters=max_iters, solver=solver, seed=seed)
    elif config.k != k:
        raise ShapeError(
            f"rank mismatch: symmetric_nmf called with k={k} but config.k={config.k}"
        )
    nls = config.make_solver()

    H = init_h_global(k, n1, config.seed)   # k × n
    W = H.T.copy()                           # n × k, start symmetric
    eye = np.eye(k)
    norm_s_sq = frobenius_norm_squared(S)

    control = LoopControl(config, observers, variant="symmetric").start()

    for iteration in range(config.max_iters):
        iter_start = time.perf_counter()

        # W-step: min ||S - W H||² + alpha ||W - Hᵀ||².
        gram_h = gram(H, transpose_first=False) + alpha * eye
        rhs_w = matmul_h_at(H, S) + alpha * H                   # k × n
        W = nls.solve(gram_h, rhs_w, x0=W.T).T

        # H-step: min ||S - W H||² + alpha ||Hᵀ - W||².
        gram_w = gram(W, transpose_first=True) + alpha * eye
        rhs_h = matmul_wt_a(W, S) + alpha * W.T                 # k × n
        H = nls.solve(gram_w, rhs_h, x0=H)

        G = 0.5 * (W + H.T)
        objective = rel_error = float("nan")
        if config.compute_error:
            residual = _symnmf_objective(S, G)
            asymmetry = float(np.linalg.norm(W - H.T))
            objective = residual + alpha * asymmetry**2
            rel_error = float(np.sqrt(residual / norm_s_sq)) if norm_s_sq > 0 else 0.0
        if control.record(
            iteration,
            objective=objective,
            relative_error=rel_error,
            seconds=time.perf_counter() - iter_start,
            factors=(G, G.T),
        ):
            break

    G = 0.5 * (W + H.T)
    result = SymNMFResult(
        W=np.ascontiguousarray(G),
        H=np.ascontiguousarray(G.T),
        config=config,
        iterations=control.iterations,
        history=control.history,
        converged=control.converged,
        variant="symmetric",
        alpha=alpha,
    )
    return control.finish(result)


def _symnmf_objective(S, G: np.ndarray) -> float:
    """``‖S − G Gᵀ‖_F²`` via the Gram trick (no n×n dense product)."""
    gtg = G.T @ G
    if is_sparse(S):
        coo = S.tocoo()
        cross = float(np.sum(coo.data * np.einsum("ij,ij->i", G[coo.row], G[coo.col])))
        norm_s = float(coo.data @ coo.data)
    else:
        cross = float(np.vdot(S @ G, G))
        norm_s = float(np.vdot(S, S))
    return max(norm_s - 2.0 * cross + float(np.sum(gtg * gtg)), 0.0)
