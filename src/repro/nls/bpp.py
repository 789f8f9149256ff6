"""Block Principal Pivoting (BPP) for nonnegative least squares (paper §4.2).

BPP (Kim & Park, "Fast nonnegative matrix factorization: an active-set-like
method and comparisons", SISC 2011) solves the KKT system of

    min_{x >= 0} ||C x - b||²        (Eq. 5 of the paper)

whose optimality conditions (Eq. 6) are

    y = CᵀC x − Cᵀb,    x >= 0,    y >= 0,    xᵀ y = 0,

i.e. a linear complementarity problem: the supports of ``x`` and ``y`` must be
complementary.  BPP maintains a partition of the k indices into a *passive*
set F (where x is free and y = 0) and an *active* set G (where x = 0 and y is
free), solves the unconstrained least squares restricted to F, and exchanges
*blocks* of infeasible indices between F and G until the KKT conditions hold.
A backup rule (exchange only the largest-index infeasible variable) guarantees
finite termination when full exchanges stop making progress.

This implementation solves many right-hand sides at once (the c columns of the
factor being updated): columns that share the same passive set are grouped so
one Cholesky factorization of ``G[F, F]`` serves the whole group — the
standard trick that makes BPP practical for NMF, where c is m/p or n/p and k
is small.  The inner engine that does the grouping, factorization and pivot
bookkeeping is pluggable: see :mod:`repro.nls.kernels` for the ``batched``
(default) and ``scalar`` kernels and their byte-identity contract.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nls.base import NLSSolver, register_solver
from repro.nls.kernels import make_kernel
from repro.util.errors import SolverError


@register_solver
class BlockPrincipalPivoting(NLSSolver):
    """Multi-right-hand-side block principal pivoting NLS solver.

    Parameters
    ----------
    max_backup:
        Number of failed full exchanges tolerated per column before switching
        to the single-variable backup rule (the parameter "α" of Kim & Park,
        default 3).
    max_iters:
        Hard cap on pivoting iterations (a safeguard; BPP terminates finitely
        with the backup rule, typically in far fewer iterations).
    tol:
        Feasibility tolerance: entries of x and y above ``-tol`` count as
        nonnegative.
    kernel:
        Inner-engine selection: ``'batched'`` (what ``None``, the default,
        means, as does ``'auto'``) or ``'scalar'`` (the reference oracle).
        See :mod:`repro.nls.kernels`.
    persistent_cache:
        Keep the passive-pattern → Cholesky-factor cache alive *across*
        ``solve`` calls.  Only valid when every call passes the same ``gram``
        (bit-for-bit) — the serving layer's situation, where ``gram = WᵀW``
        is fixed per model version and micro-batches arrive continuously.
        Reuse is bit-safe there (recomputing would reproduce the same bits);
        call :meth:`reset_cache` (or build a new solver) when the Gram
        changes.  Default off: the NMF outer loop changes the Gram every
        half-iteration, so cross-call reuse would be wrong.
    """

    name = "bpp"

    #: entries kept in the persistent pattern cache before it is cleared —
    #: a safety valve, not a tuning knob (k is small, patterns ≤ 2^k, and a
    #: serving workload revisits a handful of patterns).
    CACHE_LIMIT = 4096

    def __init__(
        self,
        max_backup: int = 3,
        max_iters: int = 1000,
        tol: float = 1e-12,
        kernel: Optional[str] = None,
        persistent_cache: bool = False,
    ):
        super().__init__()
        self.max_backup = int(max_backup)
        self.max_iters = int(max_iters)
        self.tol = float(tol)
        self.kernel = make_kernel(kernel)
        self._cache = self.kernel.make_cache() if persistent_cache else None

    def reset_cache(self) -> None:
        """Drop cached factorizations (call when the Gram matrix changes)."""
        if self._cache is not None:
            self._cache = self.kernel.make_cache()

    def solve(
        self,
        gram: np.ndarray,
        rhs: np.ndarray,
        x0: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        gram, rhs, x0 = self._validate(gram, rhs, x0, out)
        k, _ = rhs.shape

        # Regularize an exactly singular Gram matrix minimally; the NMF outer
        # iteration keeps Gram well conditioned in practice (k << m, n).
        diag = gram.diagonal()
        if (diag <= 0).any():
            gram = gram + np.eye(k) * max(np.max(diag), 1.0) * 1e-14

        if self._cache is not None and len(self._cache) > self.CACHE_LIMIT:
            self.reset_cache()
        x, state = self.kernel.solve(
            gram,
            rhs,
            x0,
            max_backup=self.max_backup,
            max_iters=self.max_iters,
            tol=self.tol,
            cache=self._cache,
        )
        self.last_state = state
        if not state.converged:
            raise SolverError(
                f"BPP did not converge within {self.max_iters} pivoting iterations"
            )

        # Clamp tiny negatives introduced by finite precision.
        return np.maximum(x, 0.0, out=x if out is None else out)


def bpp_flops_estimate(
    k: int, c: int, iterations: int = 5, grouping_factor: float = 0.5
) -> float:
    """Flop count ``C_BPP(k, c)`` used by the analytic performance model.

    Each pivoting iteration factorizes one k×k passive block *per distinct
    passive-set pattern* — on average ``grouping_factor · c`` patterns, since
    columns sharing a pattern share the Cholesky (the grouping trick above) —
    and back-substitutes all ``c`` columns:

        iterations · (grouping_factor · c · k³/3  +  2 c k²)

    The paper leaves ``C_BPP`` symbolic; this estimate gives the modeled NLS
    bars a realistic magnitude relative to the matmul terms, and the kernels
    report their *measured* counterpart in ``NLSState.extra`` (pinned against
    this formula by ``tests/nls/test_kernels.py``).
    """
    return iterations * (grouping_factor * c * k**3 / 3.0 + 2.0 * c * k**2)
