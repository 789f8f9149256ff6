"""Synthetic dense and sparse matrices (the paper's DSYN and SSYN).

DSYN: "a uniform random matrix of size 172,800 × 115,200 [plus] random
Gaussian noise"; SSYN: "a random sparse Erdős–Rényi matrix of the same
dimensions, with density 0.001".  Both generators are deterministic in the
seed and accept arbitrary dimensions so the same code serves the paper-scale
analytic model and the scaled-down measured runs.

The paper generates each process's block with "its own prime seed", so its
global matrix never exists in one place; that per-rank generation is a
documented direction (``docs/ARCHITECTURE.md``), not code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp


def dense_synthetic(
    m: int,
    n: int,
    seed: int = 0,
    noise_std: float = 0.01,
) -> np.ndarray:
    """Dense uniform-random matrix with additive Gaussian noise (DSYN).

    Entries are ``U[0, 1) + N(0, noise_std²)``; negative results of the noise
    are clipped to zero so the matrix is a valid NMF input.
    """
    rng = np.random.default_rng(seed)
    A = rng.random((m, n))
    if noise_std > 0:
        A += rng.normal(0.0, noise_std, size=(m, n))
    np.maximum(A, 0.0, out=A)
    return A


def sparse_synthetic(
    m: int,
    n: int,
    density: float = 0.001,
    seed: int = 0,
) -> sp.csr_matrix:
    """Sparse Erdős–Rényi matrix (SSYN): each entry is nonzero with probability ``density``.

    Nonzero values are uniform in (0, 1].
    """
    import scipy.sparse as sp

    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    A = sp.random(
        m,
        n,
        density=density,
        format="csr",
        random_state=np.random.default_rng(seed),
        data_rvs=lambda size: rng.random(size) + 1e-12,  # strictly positive
    )
    A.sum_duplicates()
    return A
