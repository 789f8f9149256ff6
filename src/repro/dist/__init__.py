"""repro.dist — distributed matrices and factors on 1D/2D processor grids.

This package is the data-layout layer between the communication substrate
(:mod:`repro.comm`) and the algorithms (:mod:`repro.core`).  It owns the
answer to "which rank holds which indices":

* :mod:`repro.dist.partition` — the remainder-spreading contiguous block
  layout every distributed object uses (``block_counts``, ``block_range``);
* :mod:`repro.dist.distmatrix` — :class:`~repro.dist.distmatrix.DistMatrix2D`
  (Algorithm 3's ``A_ij`` blocks, with a never-materialize-``A`` generator
  path) and :class:`~repro.dist.distmatrix.DoublePartitioned1D` (Algorithm
  2's twice-stored row/column blocks);
* :mod:`repro.dist.factors` — the ``p``-way partitioned factors
  :class:`~repro.dist.factors.DistributedFactorW` / ``(W_i)_j`` and
  :class:`~repro.dist.factors.DistributedFactorH` / ``(H_j)_i``, whose
  all-gathers along grid rows/columns reconstruct ``W_i`` and ``H_j``;
* :mod:`repro.dist.load_balance` — nonzero imbalance diagnostics and the
  random-permutation mitigation for skewed sparse data (§7 future work).

See ``docs/ARCHITECTURE.md`` for how these objects carry Algorithm 3's
per-iteration dataflow.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

# Re-exported on first access: ``NMFConfig`` validates its storage mode
# through ``repro.dist.storage`` without loading the distributed layouts.
_EXPORTS = {
    "repro.dist.distmatrix": ("DistMatrix2D", "DoublePartitioned1D"),
    "repro.dist.factors": ("DistributedFactorH", "DistributedFactorW"),
    "repro.dist.load_balance": (
        "LoadBalanceReport",
        "imbalance_factor",
        "nnz_per_block",
        "random_permutation_balance",
        "unpermute_factors",
    ),
    "repro.dist.partition": ("block_counts", "block_offsets", "block_range", "owning_rank"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
