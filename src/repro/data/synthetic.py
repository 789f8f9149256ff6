"""Synthetic dense and sparse matrices (the paper's DSYN and SSYN).

DSYN: "a uniform random matrix of size 172,800 × 115,200 [plus] random
Gaussian noise"; SSYN: "a random sparse Erdős–Rényi matrix of the same
dimensions, with density 0.001".  Both generators are deterministic in the
seed and accept arbitrary dimensions so the same code serves the paper-scale
analytic model and the scaled-down measured runs.

The generators can also produce just one block of the (virtual) global matrix
given global index ranges — the construction the paper uses, where "every
process will have its own prime seed ... to generate the input random matrix"
and the global matrix never exists in one place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.util.seeding import per_rank_seed

if TYPE_CHECKING:
    import scipy.sparse as sp


def dense_synthetic(
    m: int,
    n: int,
    seed: int = 0,
    noise_std: float = 0.01,
    clip_nonnegative: bool = True,
) -> np.ndarray:
    """Dense uniform-random matrix with additive Gaussian noise (DSYN).

    Entries are ``U[0, 1) + N(0, noise_std²)``; negative results of the noise
    are clipped to zero by default so the matrix is a valid NMF input.
    """
    rng = np.random.default_rng(seed)
    A = rng.random((m, n))
    if noise_std > 0:
        A += rng.normal(0.0, noise_std, size=(m, n))
    if clip_nonnegative:
        np.maximum(A, 0.0, out=A)
    return A


def dense_synthetic_block(
    row_range: Tuple[int, int],
    col_range: Tuple[int, int],
    rank: int,
    seed: int = 0,
    noise_std: float = 0.01,
) -> np.ndarray:
    """One block of a DSYN-like matrix generated with the owning rank's own seed.

    Mirrors the paper's per-process generation: the block statistics match
    :func:`dense_synthetic` but blocks of different ranks are generated
    independently (the global matrix is "virtual").
    """
    r0, r1 = row_range
    c0, c1 = col_range
    rng = np.random.default_rng(per_rank_seed(seed, rank))
    block = rng.random((r1 - r0, c1 - c0))
    if noise_std > 0:
        block += rng.normal(0.0, noise_std, size=block.shape)
    np.maximum(block, 0.0, out=block)
    return block


def sparse_synthetic(
    m: int,
    n: int,
    density: float = 0.001,
    seed: int = 0,
    value_distribution: str = "uniform",
) -> sp.csr_matrix:
    """Sparse Erdős–Rényi matrix (SSYN): each entry is nonzero with probability ``density``.

    Nonzero values are uniform in (0, 1] ("uniform") or all ones ("binary").
    """
    import scipy.sparse as sp

    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    if value_distribution == "uniform":
        data_rvs = lambda size: rng.random(size) + 1e-12  # noqa: E731 - strictly positive
    elif value_distribution == "binary":
        data_rvs = np.ones
    else:
        raise ValueError(f"unknown value_distribution {value_distribution!r}")
    A = sp.random(
        m,
        n,
        density=density,
        format="csr",
        random_state=np.random.default_rng(seed),
        data_rvs=data_rvs,
    )
    A.sum_duplicates()
    return A


def sparse_synthetic_block(
    row_range: Tuple[int, int],
    col_range: Tuple[int, int],
    rank: int,
    density: float = 0.001,
    seed: int = 0,
) -> sp.csr_matrix:
    """One block of an SSYN-like matrix generated with the owning rank's own seed."""
    r0, r1 = row_range
    c0, c1 = col_range
    return sparse_synthetic(r1 - r0, c1 - c0, density=density, seed=per_rank_seed(seed, rank))
