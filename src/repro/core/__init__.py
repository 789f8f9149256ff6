"""The paper's algorithms: sequential ANLS, Naive-Parallel-NMF and HPC-NMF.

* :mod:`repro.core.naive` — Algorithm 2, the naive parallelization that
  all-gathers whole factor matrices every iteration;
* :mod:`repro.core.hpc_nmf` — Algorithm 3, HPC-NMF on a ``pr × pc`` processor
  grid (the 1D variant is the grid ``(p, 1)``);
* :mod:`repro.core.spmd_loop` — what the two parallel loops share: profiler
  and ledger set-up, the error path and history record, result assembly, and
  running a rank program on a backend or in process over ``SelfComm``;
* :mod:`repro.core.api` — the user-facing front door: :func:`repro.fit` and
  the :class:`repro.NMF` estimator, used by the examples and benchmarks;
* :mod:`repro.core.variants` — the variant table behind ``fit``: one row per
  NMF flavor (Algorithm 1, the sequential ANLS reference, is ``sequential``:
  Algorithm 3 on a 1 × 1 grid).  The variant name is the only spelling of
  "which algorithm";
* :mod:`repro.core.observers` — the per-iteration observer protocol threaded
  through every variant's outer loop, plus two built-in observers (history
  capture and checkpointing).

Extensions beyond the paper's headline algorithms (motivated by its use cases
and future-work discussion):

* :mod:`repro.core.regularized` — the penalty protocol Algorithm 3 applies at
  lines 8 and 14, and ridge / L1-regularized NMF on it, at any ``p``
  (communication unchanged);
* :mod:`repro.core.symmetric` — symmetric NMF for graph clustering (the
  Webbase use case, the paper's reference [13]): Algorithm 3 on a 1 × 1 grid
  with a symmetry penalty;
* :mod:`repro.core.streaming` — sliding-window incremental NMF for live video
  (the §6.1.1 streaming scenario), whose refresh is Algorithm 3 on a 1 × 1
  grid, warm-started.
"""

from repro._lazy import lazy_exports

# Re-exported on first access: importing one module of the package (the
# server needs only ``config`` and ``result``) loads none of the variants.
_EXPORTS = {
    "repro.core.api": ("fit", "NMF"),
    "repro.core.config": ("NMFConfig",),
    "repro.core.result": ("NMFResult", "IterationStats"),
    "repro.core.observers": (
        "IterationObserver",
        "IterationEvent",
        "HistoryRecorder",
        "CheckpointEvery",
    ),
    "repro.core.variants": ("Variant", "available_variants", "get_variant"),
    "repro.core.objective": ("frobenius_error", "relative_error", "objective_from_grams"),
    "repro.core.regularized": ("Regularization",),
    "repro.core.symmetric": ("SymNMFResult",),
    "repro.core.streaming": ("StreamingNMF",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
