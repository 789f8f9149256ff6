"""Projected gradient descent for the normal-equations NLS problem.

The paper's §4.1 mentions projected gradient and interior point methods as the
generic alternatives to active-set solvers for the NLS subproblems; this
module provides the projected-gradient option as an extension so the solver
ablation (DESIGN.md §5) can compare all four families.

With ``G = CᵀC`` and ``R = CᵀB``, the objective is
``f(X) = ½⟨X, G X⟩ − ⟨R, X⟩`` (up to a constant), whose gradient is
``G X − R`` and whose Lipschitz constant is the spectral norm of ``G``.
We iterate ``X ← [X − (1/L)(G X − R)]₊`` until the projected-gradient norm
falls below ``tol`` or ``max_iters`` is reached.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nls.base import NLSSolver, NLSState, register_solver


@register_solver
class ProjectedGradient(NLSSolver):
    """Projected gradient descent with a fixed 1/L step size."""

    name = "pgrad"

    def __init__(self, max_iters: int = 200, tol: float = 1e-8, kernel=None):
        super().__init__(kernel=kernel)
        self.max_iters = int(max_iters)
        self.tol = float(tol)

    def solve(
        self,
        gram: np.ndarray,
        rhs: np.ndarray,
        x0: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        gram, rhs, x0 = self._validate(gram, rhs, x0, out)
        k, c = rhs.shape
        x = np.zeros((k, c)) if x0 is None else np.maximum(x0, 0.0).copy()

        # Lipschitz constant of the gradient: largest eigenvalue of the k×k Gram.
        eigvals = np.linalg.eigvalsh((gram + gram.T) / 2.0)
        lipschitz = float(max(eigvals[-1], 1e-12))
        step = 1.0 / lipschitz

        state = NLSState(converged=False)
        for iteration in range(self.max_iters):
            grad = gram @ x - rhs
            x_new = np.maximum(x - step * grad, 0.0)
            # Projected-gradient optimality measure: the change scaled by 1/step.
            pg_norm = float(np.linalg.norm(x_new - x)) * lipschitz
            x = x_new
            if pg_norm <= self.tol * max(1.0, float(np.linalg.norm(rhs))):
                state.iterations = iteration + 1
                state.converged = True
                break
        else:
            state.iterations = self.max_iters
        self.last_state = state
        return self._into(x, out)
