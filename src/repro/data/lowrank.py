"""Planted nonnegative low-rank matrices.

These are not one of the paper's benchmark datasets; they exist so the test
suite can check *recovery*: when the input truly is ``W* H*`` (plus optional
noise) with nonnegative factors of rank ``k``, every NMF variant should drive
the relative error toward the noise floor.  They are also handy in examples
for demonstrating interpretability of the factors.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

_NOISE_BLOCK_ROWS = 256


def planted_lowrank(
    m: int,
    n: int,
    k: int,
    seed: int = 0,
    noise_std: float = 0.0,
    return_factors: bool = False,
):
    """A nonnegative matrix ``A = W* H* (+ noise)`` with known rank-``k`` structure.

    Parameters
    ----------
    m, n, k:
        Dimensions of the planted factorization.
    noise_std:
        Standard deviation of additive Gaussian noise (clipped so A stays
        nonnegative).
    return_factors:
        When True, return ``(A, W*, H*)``.
    """
    rng = np.random.default_rng(seed)
    W = rng.random((m, k))
    H = rng.random((k, n))
    A = W @ H
    if noise_std > 0:
        # In place, a block of rows at a time: the noise matrix and the sum
        # are never whole beside A (three m × n arrays would set the peak
        # resident set, and a forked rank inherits its parent's).  Row blocks
        # of a C-ordered array consume the stream in the order one full-size
        # draw would, so the output is the same.
        for lo in range(0, m, _NOISE_BLOCK_ROWS):
            block = A[lo:lo + _NOISE_BLOCK_ROWS]
            block += rng.normal(0.0, noise_std, size=block.shape)
            np.maximum(block, 0.0, out=block)
    if return_factors:
        return A, W, H
    return A
