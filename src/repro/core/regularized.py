"""Regularized NMF (Frobenius and L1 penalties on the factors).

The paper's framework solves each ANLS subproblem from its normal equations;
the two standard regularizers fit that interface with no change to the
parallel algorithms' communication pattern, which is why they are provided as
an extension here:

* **Frobenius (ridge) regularization** ``λ_F (‖W‖_F² + ‖H‖_F²)`` adds
  ``λ_F · I`` to the k×k Gram matrix of each subproblem;
* **L1 (sparsity) regularization** ``λ_1 (‖W‖_1 + ‖H‖_1)`` (with nonnegative
  factors, the L1 norm is just the entry sum) subtracts ``λ_1/2`` from every
  entry of the right-hand side.

Both modifications act on the *k×k* and *k×c* matrices that already exist on
every rank after the collectives, so distributed regularized NMF costs exactly
the same communication as the unregularized algorithm — the property that
makes this a natural extension of the paper's method (and the approach used by
the authors' later MPI-FAUN/PLANC software).

:func:`regularized_nmf` runs the sequential version;
:func:`regularize_gram_rhs` is the shared helper the parallel path can apply
to its local normal equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.config import NMFConfig
from repro.core.local_ops import BlockProducts, gram
from repro.core.objective import frobenius_norm_squared, objective_from_grams
from repro.core.observers import IterationObserver, LoopControl
from repro.core.result import NMFResult
from repro.util.errors import ShapeError
from repro.util.validation import check_matrix, check_nonnegative, check_rank
from repro.core.initialization import init_h_global


@dataclass(frozen=True)
class Regularization:
    """Regularization weights for the two factors.

    ``frobenius`` is the ridge weight λ_F, ``l1`` the sparsity weight λ_1;
    both must be nonnegative and both default to zero (plain NMF).
    """

    frobenius: float = 0.0
    l1: float = 0.0

    def __post_init__(self):
        if self.frobenius < 0 or self.l1 < 0:
            raise ShapeError("regularization weights must be nonnegative")

    @property
    def is_active(self) -> bool:
        return self.frobenius > 0 or self.l1 > 0


def regularize_gram_rhs(
    gram_matrix: np.ndarray,
    rhs: np.ndarray,
    reg: Regularization,
) -> Tuple[np.ndarray, np.ndarray]:
    """Apply ridge/L1 regularization to a normal-equations pair.

    Returns new ``(gram, rhs)`` arrays; the inputs are not modified.  This is
    the only hook a distributed implementation needs, since both matrices are
    already replicated (gram) or locally owned (rhs) on every rank.
    """
    if not reg.is_active:
        return gram_matrix, rhs
    k = gram_matrix.shape[0]
    new_gram = gram_matrix + reg.frobenius * np.eye(k)
    new_rhs = rhs - 0.5 * reg.l1 if reg.l1 > 0 else rhs
    return new_gram, new_rhs


def regularized_objective(
    norm_a_sq: float,
    cross: float,
    gram_w: np.ndarray,
    gram_h: np.ndarray,
    W: np.ndarray,
    H: np.ndarray,
    reg: Regularization,
) -> float:
    """The penalized objective ``‖A−WH‖² + λ_F(‖W‖²+‖H‖²) + λ_1(‖W‖_1+‖H‖_1)``."""
    base = objective_from_grams(norm_a_sq, cross, gram_w, gram_h)
    penalty = 0.0
    if reg.frobenius > 0:
        penalty += reg.frobenius * (float(np.vdot(W, W)) + float(np.vdot(H, H)))
    if reg.l1 > 0:
        penalty += reg.l1 * (float(np.sum(W)) + float(np.sum(H)))
    return base + penalty


def regularized_nmf(
    A,
    config: NMFConfig,
    regularization: Optional[Regularization] = None,
    observers: Optional[Sequence[IterationObserver]] = None,
) -> NMFResult:
    """Sequential ANLS NMF with ridge and/or L1 regularization on both factors.

    With ``regularization=None`` (or all-zero weights) this reduces exactly to
    :func:`repro.core.anls.anls_nmf`'s iteration (same updates, same seed
    handling), which the tests verify.  ``observers`` follow the protocol of
    :mod:`repro.core.observers`.
    """
    import time

    reg = regularization or Regularization()
    A = check_matrix(A, "A")
    check_nonnegative(A, "A")
    m, n = A.shape
    k = check_rank(config.k, m, n)

    solver = config.make_solver()
    # Persistent iterates and one right-hand-side buffer, as in anls_nmf.
    H = init_h_global(k, n, config.seed)
    Wt = np.zeros((k, m))
    rhs = np.empty(k * max(m, n))
    products = BlockProducts(A, k)
    norm_a_sq = frobenius_norm_squared(A)

    control = LoopControl(config, observers, variant="regularized").start()

    for iteration in range(config.max_iters):
        start = time.perf_counter()

        gram_h = gram(H, transpose_first=False)
        products.set_h(H)
        h_at = products.h_at(rhs[:k * m].reshape(k, m))
        g, r = regularize_gram_rhs(gram_h, h_at, reg)
        solver.solve(g, r, x0=Wt if np.any(Wt) else None, out=Wt)
        W = Wt.T

        gram_w = gram(W, transpose_first=True)
        wt_a = products.wt_a(W, rhs[:k * n].reshape(k, n))
        g, r = regularize_gram_rhs(gram_w, wt_a, reg)
        solver.solve(g, r, x0=H, out=H)

        objective = rel = float("nan")
        if config.compute_error:
            cross = float(np.vdot(wt_a, H))
            gram_h_new = gram(H, transpose_first=False)
            objective = regularized_objective(
                norm_a_sq, cross, gram_w, gram_h_new, W, H, reg
            )
            rel = float(np.sqrt(max(objective, 0.0) / norm_a_sq)) if norm_a_sq > 0 else 0.0
        if control.record(
            iteration,
            objective=objective,
            relative_error=rel,
            seconds=time.perf_counter() - start,
            factors=(W, H),
        ):
            break

    result = NMFResult(
        W=np.ascontiguousarray(W),
        H=np.ascontiguousarray(H),
        config=config,
        iterations=control.iterations,
        history=control.history,
        converged=control.converged,
        variant="regularized",
    )
    return control.finish(result)
