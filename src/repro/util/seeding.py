"""Deterministic per-rank seeding.

The paper (§6.1.1 and the DSYN description in §6.1.1) generates the synthetic
input on each process with "its own prime seed that is different from other
processes", and initialises H with the same seed across algorithms so that
all variants perform the same computations.  We reproduce both conventions:

* :func:`per_rank_seed` maps a (base seed, rank) pair to a distinct prime-based
  seed, deterministically;
* :func:`spawn_rng` builds a :class:`numpy.random.Generator` from it.
"""

from __future__ import annotations

import math
from itertools import compress

import numpy as np


def _first_primes(count: int) -> list[int]:
    """Return the first ``count`` prime numbers (sieve of Eratosthenes)."""
    # Rosser's bound: the n-th prime is below n (ln n + ln ln n) for n >= 6.
    limit = 13 if count < 6 else int(count * (math.log(count) + math.log(math.log(count))))
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), sieve))[:count]


_PRIME_CACHE: list[int] = _first_primes(2048)


def per_rank_seed(base_seed: int, rank: int) -> int:
    """Return a deterministic seed for ``rank`` derived from ``base_seed``.

    Each rank gets a distinct prime multiplier, mirroring the paper's
    "every process will have its own prime seed" convention while remaining
    reproducible for a fixed ``base_seed``.
    """
    if rank < 0:
        raise ValueError(f"rank must be nonnegative, got {rank}")
    if rank < len(_PRIME_CACHE):
        prime = _PRIME_CACHE[rank]
    else:  # pragma: no cover - enormous rank counts
        prime = _first_primes(rank + 1)[rank]
    return (int(base_seed) * 1_000_003 + prime * 7919 + rank) % (2**63 - 1)


def spawn_rng(base_seed: int, rank: int = 0) -> np.random.Generator:
    """Return a Generator seeded deterministically for ``(base_seed, rank)``."""
    return np.random.default_rng(per_rank_seed(base_seed, rank))
