"""Regularized NMF (Frobenius and L1 penalties on the factors).

The paper's framework solves each ANLS subproblem from its normal equations.
A penalty on the factors changes only the Gram matrix and the right-hand side
of those equations, so it needs no change to the parallel algorithms'
communication pattern (the approach of the authors' later MPI-FAUN/PLANC
software).  :class:`Penalty` is that change, as Algorithm 3's loop
(:func:`repro.core.hpc_nmf.hpc_nmf`) applies it; :class:`Regularization`
implements it for the two standard regularizers:

* **Frobenius (ridge) regularization** ``λ_F (‖W‖_F² + ‖H‖_F²)`` adds
  ``λ_F · I`` to the k×k Gram matrix of each subproblem;
* **L1 (sparsity) regularization** ``λ_1 (‖W‖_1 + ‖H‖_1)`` (with nonnegative
  factors, the L1 norm is just the entry sum) subtracts ``λ_1/2`` from every
  entry of the right-hand side.

Both act on matrices every rank already holds after the collectives: the
replicated k×k Gram and the locally owned right-hand side.
``fit(variant="regularized")`` runs that loop at any ``p``: on a 1 × 1 grid
over :class:`~repro.comm.communicator.SelfComm` when ``config.n_ranks == 1``,
on ``config.n_ranks`` ranks of ``config.backend`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Tuple

import numpy as np

from repro.util.errors import ShapeError


class Penalty(Protocol):
    """A penalty on the factors: what Algorithm 3's loop calls, and where.

    ``normal_equations`` returns the penalized ``(gram, rhs)`` at lines 8 and
    14 without modifying its inputs; ``partner`` is the other factor's block
    lined up with ``rhs`` (``H``'s at line 8, ``Wᵀ``'s at line 14).
    ``local_scalars`` is this rank's share of the numbers the penalty value
    needs, summed in the error path's cross-term all-reduce (none adds no
    word), and ``objective_term`` is that value, added to ``objective`` only:
    ``relative_error`` stays the unpenalized ``‖A − WH‖_F / ‖A‖_F``.
    """

    def normal_equations(self, gram, rhs, partner) -> Tuple[np.ndarray, np.ndarray]: ...

    def local_scalars(self, W_local, H_local) -> Tuple[float, ...]: ...

    def objective_term(self, gram_w, gram_h, scalars) -> float: ...


@dataclass(frozen=True)
class Regularization:
    """Regularization weights for the two factors (a :class:`Penalty`).

    ``frobenius`` is the ridge weight λ_F, ``l1`` the sparsity weight λ_1;
    both must be nonnegative and both default to zero (plain NMF, whose
    normal equations come back as they are).
    """

    frobenius: float = 0.0
    l1: float = 0.0

    def __post_init__(self):
        if self.frobenius < 0 or self.l1 < 0:
            raise ShapeError("regularization weights must be nonnegative")

    @property
    def is_active(self) -> bool:
        return self.frobenius > 0 or self.l1 > 0

    def normal_equations(self, gram, rhs, partner):
        """``(gram + λ_F I, rhs − λ_1/2)``; ``partner`` is not read."""
        if not self.is_active:
            return gram, rhs
        new_gram = gram + self.frobenius * np.eye(gram.shape[0])
        new_rhs = rhs - 0.5 * self.l1 if self.l1 > 0 else rhs
        return new_gram, new_rhs

    def local_scalars(self, W_local, H_local):
        """The local entry sum ``ΣW + ΣH`` when λ_1 > 0, else nothing."""
        return (np.sum(W_local) + np.sum(H_local),) if self.l1 > 0 else ()

    def objective_term(self, gram_w, gram_h, scalars) -> float:
        """``λ_F (tr WᵀW + tr HHᵀ) + λ_1 (ΣW + ΣH)``."""
        entry_sum = scalars[0] if scalars else 0.0
        return (
            self.frobenius * float(np.trace(gram_w) + np.trace(gram_h))
            + self.l1 * entry_sum
        )
