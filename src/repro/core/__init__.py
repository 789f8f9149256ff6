"""The paper's algorithms: sequential ANLS, Naive-Parallel-NMF and HPC-NMF.

* :mod:`repro.core.anls` — Algorithm 1, the sequential Alternating
  Nonnegative Least Squares framework (the correctness reference);
* :mod:`repro.core.naive` — Algorithm 2, the naive parallelization that
  all-gathers whole factor matrices every iteration;
* :mod:`repro.core.hpc_nmf` — Algorithm 3, HPC-NMF on a ``pr × pc`` processor
  grid (the 1D variant is the grid ``(p, 1)``);
* :mod:`repro.core.spmd_loop` — what the two parallel loops share: profiler
  and ledger set-up, the error path and history record, result assembly;
* :mod:`repro.core.api` — the user-facing front door: :func:`repro.fit` and
  the :class:`repro.NMF` estimator, used by the examples and benchmarks;
* :mod:`repro.core.variants` — the variant registry behind ``fit``; one
  registered descriptor per NMF flavor, with capability flags.  The registry
  name is the only spelling of "which algorithm";
* :mod:`repro.core.observers` — the per-iteration observer protocol threaded
  through every variant's outer loop, plus the composable built-in observers
  (history capture, tolerance stop, wall-clock budget, checkpointing,
  progress printing).

Extensions beyond the paper's headline algorithms (motivated by its use cases
and future-work discussion):

* :mod:`repro.core.regularized` — ridge / L1-regularized NMF through the same
  normal-equations interface (communication pattern unchanged);
* :mod:`repro.core.symmetric` — symmetric NMF for graph clustering (the
  Webbase use case, the paper's reference [13]);
* :mod:`repro.core.streaming` — sliding-window incremental NMF for live video
  (the §6.1.1 streaming scenario).
"""

from repro.core.api import NMF, fit
from repro.core.anls import anls_nmf
from repro.core.config import NMFConfig
from repro.core.observers import (
    CallbackObserver,
    CheckpointEvery,
    HistoryRecorder,
    IterationEvent,
    IterationObserver,
    ProgressPrinter,
    ToleranceStop,
    WallClockBudget,
)
from repro.core.result import NMFResult, IterationStats
from repro.core.objective import (
    frobenius_error,
    relative_error,
    objective_from_grams,
)
from repro.core.regularized import Regularization, regularized_nmf
from repro.core.symmetric import SymNMFResult, symmetric_nmf
from repro.core.streaming import StreamingNMF
from repro.core.variants import (
    Variant,
    available_variants,
    get_variant,
    register_variant,
)

__all__ = [
    "fit",
    "NMF",
    "anls_nmf",
    "NMFConfig",
    "NMFResult",
    "IterationStats",
    "IterationObserver",
    "IterationEvent",
    "HistoryRecorder",
    "ToleranceStop",
    "WallClockBudget",
    "CheckpointEvery",
    "ProgressPrinter",
    "CallbackObserver",
    "Variant",
    "available_variants",
    "get_variant",
    "register_variant",
    "frobenius_error",
    "relative_error",
    "objective_from_grams",
    "Regularization",
    "regularized_nmf",
    "SymNMFResult",
    "symmetric_nmf",
    "StreamingNMF",
]
