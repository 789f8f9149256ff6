"""Factor initialization (paper §6.1.3).

The paper initialises ``H`` with a uniform random nonnegative matrix from a
fixed seed, reusing the same seed across the algorithms being compared so all
variants perform identical computations, and notes that ``W`` need not be
initialised at all (the first half-iteration solves for ``W`` given ``H``).

Two construction paths are provided:

* :func:`init_h_global` — the full ``k × n`` matrix from the seed; the
  parallel algorithms draw exactly their own columns of it
  (:func:`init_h_slice`).  This makes sequential and parallel runs
  bitwise-comparable and is what the comparison tests rely on.
* :func:`init_h_local` — each rank generates only its own columns using a
  per-rank seed (the scalable path, analogous to how the paper's synthetic
  data is generated in place).  Different ranks produce statistically
  independent columns; the result no longer matches the sequential reference
  bit-for-bit, so this path is used when n is too large to materialise H.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.util.seeding import per_rank_seed, spawn_rng


def init_h_global(k: int, n: int, seed: int) -> np.ndarray:
    """The full ``k × n`` uniform-random initial ``H`` for a given seed."""
    rng = np.random.default_rng(int(seed))
    return rng.random((k, n))


def init_h_slice(k: int, n: int, seed: int, col_range: Tuple[int, int]) -> np.ndarray:
    """The columns ``[col_range)`` of :func:`init_h_global`'s matrix.

    Every rank calls this with the same ``seed`` and its own column range, so
    the union over ranks reproduces the sequential initial ``H`` exactly.
    Only the requested columns are drawn: the global matrix is filled row by
    row, one 64-bit PCG64 output per entry, so row ``r`` of the slice is the
    ``hi - lo`` draws after skipping (``bit_generator.advance``) to stream
    position ``r·n + lo``.
    """
    lo, hi = col_range
    rng = np.random.default_rng(int(seed))
    block = np.empty((k, hi - lo))
    for r in range(k):
        # from the end of the previous row's slice to the start of this one's
        rng.bit_generator.advance(lo if r == 0 else n - (hi - lo))
        rng.random(out=block[r])
    return block


def init_h_local(k: int, n_local: int, seed: int, rank: int) -> np.ndarray:
    """A rank-local random nonnegative ``k × n_local`` block from a per-rank seed."""
    rng = spawn_rng(seed, rank)
    return rng.random((k, n_local))


def init_w_global(m: int, k: int, seed: int) -> np.ndarray:
    """A full ``m × k`` random nonnegative ``W`` (only needed by MU/HALS warm starts)."""
    rng = np.random.default_rng(per_rank_seed(seed, 1))
    return rng.random((m, k))
