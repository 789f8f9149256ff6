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
* :class:`~repro.nls.hals.HALSUpdate` — hierarchical ALS (Eq. 4).

These are the three solvers the paper's framework and MPI-FAUN evaluate.
The registry keeps a solver only while it is the fastest to BPP's error on
some input, or a benchmark workload runs it: ``docs/ARCHITECTURE.md``
("Solver census") has the measurement, ``examples/solver_census.py`` makes it.

BPP's inner engine comes from the kernels registry (:mod:`repro.nls.kernels`):
``batched`` (the default: vectorized pivot rules, stacked Cholesky and
substitution) and ``scalar`` (the per-column reference oracle,
byte-identical).  It is chosen by ``BlockPrincipalPivoting(kernel=...)`` —
the benchmark's probes and the serving path do — not by a fit: the choice
of *algorithm* is ``NMFConfig.solver``, and every fit runs the default
engine.
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
]
