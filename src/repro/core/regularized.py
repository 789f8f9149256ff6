"""Regularized NMF (Frobenius and L1 penalties on the factors).

The paper's framework solves each ANLS subproblem from its normal equations;
the two standard regularizers fit that interface with no change to the
parallel algorithms' communication pattern (the approach of the authors'
later MPI-FAUN/PLANC software):

* **Frobenius (ridge) regularization** ``λ_F (‖W‖_F² + ‖H‖_F²)`` adds
  ``λ_F · I`` to the k×k Gram matrix of each subproblem;
* **L1 (sparsity) regularization** ``λ_1 (‖W‖_1 + ‖H‖_1)`` (with nonnegative
  factors, the L1 norm is just the entry sum) subtracts ``λ_1/2`` from every
  entry of the right-hand side.

Both act on matrices every rank already holds after the collectives: the
replicated k×k Gram and the locally owned right-hand side.
:func:`regularize_gram_rhs` is that change, applied by Algorithm 3's loop
(:func:`repro.core.hpc_nmf.hpc_nmf`) at lines 8 and 14.
:func:`regularized_nmf` runs that loop at any ``p``: on a 1 × 1 grid over
:class:`~repro.comm.communicator.SelfComm` when ``config.n_ranks == 1``, on
``config.n_ranks`` ranks of ``config.backend`` otherwise.

The penalized objective is read from the error path's pieces: the ridge term
``λ_F (tr WᵀW + tr HHᵀ)`` from the replicated Grams, the L1 term from the
factors' entry sums, which ride along the cross-term all-reduce.
``relative_error`` stays the unpenalized ``‖A − WH‖_F / ‖A‖_F``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.config import NMFConfig
from repro.core.observers import IterationObserver
from repro.core.result import NMFResult
from repro.util.errors import ShapeError


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

    def penalty(self, gram_w: np.ndarray, gram_h: np.ndarray, entry_sum: float) -> float:
        """``λ_F (tr WᵀW + tr HHᵀ) + λ_1 (ΣW + ΣH)``; ``entry_sum`` is ``ΣW + ΣH``."""
        return (
            self.frobenius * float(np.trace(gram_w) + np.trace(gram_h))
            + self.l1 * entry_sum
        )


def regularize_gram_rhs(
    gram_matrix: np.ndarray,
    rhs: np.ndarray,
    reg: Regularization,
) -> Tuple[np.ndarray, np.ndarray]:
    """Apply ridge/L1 regularization to a normal-equations pair.

    Returns new ``(gram, rhs)`` arrays; the inputs are not modified, and an
    inactive ``reg`` returns them as they are.
    """
    if not reg.is_active:
        return gram_matrix, rhs
    k = gram_matrix.shape[0]
    new_gram = gram_matrix + reg.frobenius * np.eye(k)
    new_rhs = rhs - 0.5 * reg.l1 if reg.l1 > 0 else rhs
    return new_gram, new_rhs


def regularized_nmf(
    A,
    config: NMFConfig,
    regularization: Optional[Regularization] = None,
    observers: Optional[Sequence[IterationObserver]] = None,
) -> NMFResult:
    """ANLS NMF with ridge and/or L1 regularization on both factors.

    Algorithm 3 with :func:`regularize_gram_rhs` at lines 8 and 14, on
    ``config.n_ranks`` ranks.  With ``regularization=None`` (or all-zero
    weights) the result is bit for bit :func:`repro.core.anls.anls_nmf`'s.
    ``observers`` follow the protocol of :mod:`repro.core.observers`.
    """
    from repro.core.hpc_nmf import hpc_nmf
    from repro.core.spmd_loop import run_in_process, run_on_backend

    run = run_in_process if config.n_ranks == 1 else run_on_backend
    return run(
        hpc_nmf, A, config, observers, "regularized",
        regularization=regularization or Regularization(),
    )
