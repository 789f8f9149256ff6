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

so this is Algorithm 3's loop with one penalty hook at lines 8 and 14
(:class:`SymmetryPenalty`), which ``fit(variant="symmetric")`` runs over
:class:`~repro.comm.communicator.SelfComm` (:mod:`repro.core.variants`).
``history`` follows ``regularized``'s contract: ``relative_error`` is the unpenalized
``‖S − WH‖_F / ‖S‖_F`` of the ``(W, H)`` iterate, ``objective`` the penalized
``‖S − WH‖_F² + α ‖W − Hᵀ‖_F²``, and observers see the live ``(W, H)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.result import NMFResult


@dataclass(frozen=True)
class SymmetryPenalty:
    """``α ‖W − Hᵀ‖_F²`` as a :class:`~repro.core.regularized.Penalty`.

    Its value ``α (tr WᵀW + tr HHᵀ − 2⟨W, Hᵀ⟩)`` needs one local scalar,
    ``⟨W, Hᵀ⟩``, whose blocks line up on a 1 × 1 grid only.
    """

    alpha: float

    def normal_equations(self, gram, rhs, partner):
        return gram + self.alpha * np.eye(gram.shape[0]), rhs + self.alpha * partner

    def local_scalars(self, W_local, H_local):
        return (np.vdot(W_local, H_local.T),)

    def objective_term(self, gram_w, gram_h, scalars) -> float:
        return self.alpha * float(np.trace(gram_w) + np.trace(gram_h) - 2.0 * scalars[0])


@dataclass
class SymNMFResult(NMFResult):
    """Result of a symmetric NMF run: an :class:`NMFResult` with ``H = Gᵀ``.

    The factors satisfy ``W = G`` and ``H = Gᵀ``, so ``W @ H`` is the
    symmetric model ``G Gᵀ``; :attr:`G` and :attr:`labels` expose the
    clustering view.  ``history`` is that of
    the ``(W, H)`` iterates (see the module docstring).
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
