"""Local nonnegative least squares (NLS) solvers.

The ANLS framework (paper §4.1) alternates two NLS subproblems,

    W ← argmin_{W ≥ 0} ||A - W H||_F,      H ← argmin_{H ≥ 0} ||A - W H||_F,

each of which is solved from its *normal equations*: given the k×k Gram matrix
(``H Hᵀ`` or ``Wᵀ W``) and the k×c right-hand side (``A Hᵀ`` or ``Wᵀ A``),
find the nonnegative ``k × c`` solution column by column.  All solvers here
share that interface (:class:`~repro.nls.base.NLSSolver`), which is exactly
the quantity the parallel algorithms assemble with their collectives — so any
solver plugs into Algorithm 2 and Algorithm 3 unchanged, as the paper claims.

Implemented solvers:

* :class:`~repro.nls.bpp.BlockPrincipalPivoting` — the paper's default
  (Kim & Park 2011), an active-set-like method with block exchanges;
* :class:`~repro.nls.mu.MultiplicativeUpdate` — Lee & Seung updates (Eq. 3);
* :class:`~repro.nls.hals.HALSUpdate` — hierarchical ALS (Eq. 4);
* :class:`~repro.nls.pgrad.ProjectedGradient` — projected gradient descent
  with Lipschitz step size (the "generic constrained convex optimization"
  route mentioned in §4.1);
* :func:`~repro.nls.nnls.active_set_nnls` — single right-hand-side
  Lawson–Hanson active set, used as a correctness oracle in the tests.

BPP's inner engine is pluggable via the kernels registry
(:mod:`repro.nls.kernels`): ``batched`` (the default: vectorized pivot rules,
stacked Cholesky and substitution) and ``scalar`` (the per-column reference
oracle, byte-identical).
"""

from repro.nls.base import NLSSolver, NLSState, make_solver, available_solvers
from repro.nls.kernels import (
    NLSKernel,
    available_kernels,
    make_kernel,
    resolve_kernel,
)
from repro.nls.bpp import BlockPrincipalPivoting
from repro.nls.mu import MultiplicativeUpdate
from repro.nls.hals import HALSUpdate
from repro.nls.pgrad import ProjectedGradient
from repro.nls.admm import ADMMSolver
from repro.nls.nnls import active_set_nnls
from repro.nls.kkt import kkt_residual, check_kkt

__all__ = [
    "NLSSolver",
    "NLSState",
    "make_solver",
    "available_solvers",
    "NLSKernel",
    "make_kernel",
    "available_kernels",
    "resolve_kernel",
    "BlockPrincipalPivoting",
    "MultiplicativeUpdate",
    "HALSUpdate",
    "ProjectedGradient",
    "ADMMSolver",
    "active_set_nnls",
    "kkt_residual",
    "check_kkt",
]
