"""A sparse fit allocates nothing in steady state.

Every product lands in a persistent buffer and HALS solves in place, so past
the first iterations a fit's traced heap only moves by its k × k Grams and
the sparse kernel's scratch-sized temporaries.  Measured with tracemalloc
(NumPy reports its data buffers to it) between the end of iteration 1 and
the end of the last iteration; the thread backend runs its ranks in this
process, so both ranks are traced.
"""

import tracemalloc

import pytest

from repro.core.api import fit
from repro.core.local_ops import SPARSE_BLOCK_ROWS
from repro.core.observers import IterationObserver
from repro.data import sparse_synthetic

K = 8
ITERS = 6


class PeakAfterIterationOne(IterationObserver):
    """Traced heap growth from the end of iteration 1 to the last iteration."""

    def on_start(self, config, variant):
        self.growth = None

    def on_iteration(self, event):
        if event.iteration == 1:
            self.base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
        elif event.iteration == ITERS - 1:
            _, peak = tracemalloc.get_traced_memory()
            self.growth = peak - self.base


def _bound(ranks: int) -> int:
    """Per rank: one scratch block plus a handful of k × k Grams."""
    return ranks * (SPARSE_BLOCK_ROWS * K + 16 * K * K) * 8


@pytest.mark.parametrize("variant, options", [
    ("sequential", {}),
    ("hpc2d", {"n_ranks": 2, "backend": "thread"}),
    ("hpc2d", {"n_ranks": 2, "backend": "thread", "grid": (1, 2)}),
])
def test_sparse_fit_heap_stays_put(variant, options):
    A = sparse_synthetic(16000, 12000, density=5e-4, seed=5)
    probe = PeakAfterIterationOne()
    tracemalloc.start()
    try:
        res = fit(A, K, variant=variant, solver="hals", max_iters=ITERS, seed=3,
                  observers=[probe], **options)
    finally:
        tracemalloc.stop()
    assert res.iterations == ITERS
    ranks = options.get("n_ranks", 1)
    assert probe.growth is not None and probe.growth < _bound(ranks), (probe.growth, _bound(ranks))
