"""ADMM solver for the nonnegative least squares subproblem.

A fourth solver family for the ANLS framework (besides active-set/BPP,
multiplicative updates and coordinate descent): the alternating direction
method of multipliers splits the NLS problem

    min_{X >= 0} ½‖C X − B‖²
        =  min_{X, Z}  ½⟨X, G X⟩ − ⟨R, X⟩ + I_{Z >= 0}(Z)   s.t.  X = Z,

and alternates an unconstrained ridge solve, a projection, and a dual update:

    X ← (G + ρ I)⁻¹ (R + ρ (Z − U))
    Z ← max(X + U, 0)
    U ← U + X − Z.

Because ``G + ρ I`` is fixed across the inner iterations, its Cholesky factor
is computed once per ``solve`` call and reused — the same normal-equations
economics as the other solvers, so ADMM plugs into the sequential and parallel
algorithms unchanged.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nls.base import NLSSolver, NLSState, register_solver


@register_solver
class ADMMSolver(NLSSolver):
    """ADMM for the normal-equations NLS problem.

    Parameters
    ----------
    rho:
        Augmented-Lagrangian penalty.  ``None`` uses ``trace(G)/k``, a common
        self-scaling choice that keeps the splitting well conditioned across
        the wildly different Gram scales the ANLS outer loop produces.
    max_iters:
        Inner ADMM iterations per call.
    tol:
        Stop when both the primal residual ``‖X − Z‖`` and the dual residual
        ``ρ‖Z − Z_prev‖`` fall below ``tol`` (relative to the iterate norms).
    """

    name = "admm"

    def __init__(self, rho: Optional[float] = None, max_iters: int = 100, tol: float = 1e-8,
                 kernel=None):
        super().__init__(kernel=kernel)
        self.rho = rho
        self.max_iters = int(max_iters)
        self.tol = float(tol)

    def solve(
        self,
        gram: np.ndarray,
        rhs: np.ndarray,
        x0: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        import scipy.linalg as sla

        gram, rhs, x0 = self._validate(gram, rhs, x0, out)
        k, c = rhs.shape
        rho = self.rho if self.rho is not None else max(float(np.trace(gram)) / k, 1e-8)

        chol = sla.cho_factor(gram + rho * np.eye(k), lower=True, check_finite=False)

        Z = np.maximum(x0, 0.0).copy() if x0 is not None else np.zeros((k, c))
        U = np.zeros((k, c))

        state = NLSState(converged=False)
        for iteration in range(self.max_iters):
            X = sla.cho_solve(chol, rhs + rho * (Z - U), check_finite=False)
            Z_prev = Z
            Z = np.maximum(X + U, 0.0)
            U = U + X - Z

            primal = float(np.linalg.norm(X - Z))
            dual = rho * float(np.linalg.norm(Z - Z_prev))
            scale = max(1.0, float(np.linalg.norm(Z)), float(np.linalg.norm(X)))
            if primal <= self.tol * scale and dual <= self.tol * scale:
                state.iterations = iteration + 1
                state.converged = True
                break
        else:
            state.iterations = self.max_iters

        self.last_state = state
        return self._into(Z, out)
