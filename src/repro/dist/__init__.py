"""repro.dist — distributed matrices and factors on 1D/2D processor grids.

This package is the data-layout layer between the communication substrate
(:mod:`repro.comm`) and the algorithms (:mod:`repro.core`).  It owns the
answer to "which rank holds which indices":

* :mod:`repro.dist.partition` — the remainder-spreading contiguous block
  layout every distributed object uses (``block_counts``, ``block_range``);
* :mod:`repro.dist.distmatrix` — :func:`~repro.dist.distmatrix.cut_block`,
  the one block cut of both parallel algorithms (file-backed when ``A`` is an
  ``np.memmap``), and :class:`~repro.dist.distmatrix.DistMatrix2D`
  (Algorithm 3's ``A_ij`` blocks);
* :mod:`repro.dist.factors` — the ``p``-way partitioned factors
  :class:`~repro.dist.factors.DistributedFactorW` / ``(W_i)_j`` and
  :class:`~repro.dist.factors.DistributedFactorH` / ``(H_j)_i``, whose
  all-gathers along grid rows/columns reconstruct ``W_i`` and ``H_j``.

The paper's §7 nonzero load balancing (random row/column permutations of a
skewed sparse ``A``) is a documented direction, not code: see
``docs/ARCHITECTURE.md``.

See ``docs/ARCHITECTURE.md`` for how these objects carry Algorithm 3's
per-iteration dataflow.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

# Re-exported on first access, like ``repro.core`` and ``repro.comm``:
# importing the package loads no layout until one is named.
_EXPORTS = {
    "repro.dist.distmatrix": ("DistMatrix2D", "cut_block"),
    "repro.dist.factors": ("DistributedFactorH", "DistributedFactorW"),
    "repro.dist.partition": ("block_counts", "block_range"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__ = lazy_exports(__name__, _EXPORTS)
