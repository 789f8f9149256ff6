"""The ``sequential`` variant: Algorithm 1, the ANLS correctness reference.

Algorithm 1 is Algorithm 3 on a 1 × 1 grid: :func:`repro.core.anls.anls_nmf`
runs the one loop over :class:`~repro.comm.communicator.SelfComm` in this
process, with no execution backend.
"""

from __future__ import annotations

from repro.core.anls import anls_nmf
from repro.core.config import NMFConfig
from repro.core.result import NMFResult
from repro.core.variants.base import Variant, register_variant


@register_variant
class SequentialVariant(Variant):
    """In-process ANLS (the reference the parallel variants must match)."""

    name = "sequential"
    label = "Sequential"
    summary = "Algorithm 1: sequential ANLS reference"
    parallelizable = False
    sparse_ok = True

    def predicted_breakdown(self, problem, p, grid=None, machine=None):
        """Single-process cost: Algorithm 2's closed form at ``p = 1``.

        At one process the Naive and HPC formulas coincide (all collectives
        are free, the Gram "redundancy" is the whole computation), so the
        planner can compare staying sequential against going parallel.
        """
        if p != 1:
            return None
        from repro.perf.model import naive_breakdown

        return naive_breakdown(problem, problem.k, 1, machine=machine)

    def predicted_words(self, problem, p, grid=None):
        return 0.0 if p == 1 else None

    def run(self, A, config: NMFConfig, observers=()) -> NMFResult:
        return anls_nmf(A, config.with_options(n_ranks=1), observers=observers)
