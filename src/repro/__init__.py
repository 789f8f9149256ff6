"""repro — reproduction of the PPoPP 2016 HPC-NMF paper.

This package reimplements, in pure Python (numpy/scipy), the system described
in "A High-Performance Parallel Algorithm for Nonnegative Matrix
Factorization" (Kannan, Ballard, Park; PPoPP 2016):

* an MPI-like SPMD communication substrate (:mod:`repro.comm`) with the
  collectives the paper relies on (all-gather, reduce-scatter, all-reduce) and
  an alpha-beta-gamma cost model,
* distributed dense/sparse matrices and factors on 1D and 2D processor grids
  (:mod:`repro.dist`): the block layout (:mod:`repro.dist.partition`), the
  ``A_ij`` data blocks (:mod:`repro.dist.distmatrix`), the ``(W_i)_j`` /
  ``(H_j)_i`` factor sub-blocks (:mod:`repro.dist.factors`),
* the local nonnegative-least-squares solvers the ANLS framework plugs in —
  Block Principal Pivoting, Multiplicative Update, HALS and more
  (:mod:`repro.nls`),
* the paper's algorithms: sequential ANLS (Algorithm 1), Naive-Parallel-NMF
  (Algorithm 2) and HPC-NMF (Algorithm 3) in :mod:`repro.core`,
* dataset generators matching the paper's evaluation (:mod:`repro.data`),
* the closed-form performance model of the evaluation section and the
  machine constants it is priced on (:mod:`repro.perf`), and
* the planning layer (:mod:`repro.plan`): the §5 cost model as an executable
  selection rule — ``fit(A, k, variant="auto", grid="auto")`` scores every
  modeled variant × grid and runs the argmin, recording the chosen
  :class:`~repro.plan.planner.ExecutionPlan` on the result.

Quickstart
----------
>>> import numpy as np
>>> from repro import fit
>>> A = np.abs(np.random.default_rng(0).standard_normal((200, 150)))
>>> result = fit(A, 10, max_iters=20, seed=0)
>>> result.W.shape, result.H.shape
((200, 10), (10, 150))

Every NMF flavor runs through :func:`repro.fit` (or the estimator-style
:class:`repro.NMF`) by variant name — ``fit(A, k, variant="hpc2d",
n_ranks=16, backend="lockstep")`` — one row each of the table in
:mod:`repro.core.variants`.  The top-level entry points are re-exported
lazily so that importing a subpackage (for example :mod:`repro.comm` in an
SPMD worker) does not pull in the whole library.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "repro.core.api": ("fit", "NMF"),
    "repro.core.config": ("NMFConfig",),
    "repro.core.result": ("NMFResult",),
    "repro.core.observers": ("IterationObserver",),
    "repro.core.variants": ("available_variants", "get_variant"),
    "repro.plan.problem": ("ProblemSpec",),
    "repro.plan.planner": ("ExecutionPlan", "make_plan", "plan_candidates"),
}

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]
__getattr__ = lazy_exports(__name__, _EXPORTS)
