"""Unit tests for deterministic per-rank seeding."""

import math

import pytest

from repro.util.seeding import _PRIME_CACHE, _first_primes, per_rank_seed


def test_prime_table_is_the_first_2048_primes():
    assert len(_PRIME_CACHE) == 2048
    assert _PRIME_CACHE[:10] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert _PRIME_CACHE[-1] == 17863


def test_seeds_are_pinned():
    assert [per_rank_seed(7, r) for r in range(3)] == [7015859, 7023779, 7039618]


@pytest.fixture(scope="module")
def first_5000_primes():
    """By trial division; the 5000th prime is 48611."""
    return [c for c in range(2, 48612) if all(c % p for p in range(2, math.isqrt(c) + 1))]


@pytest.mark.parametrize("count", [0, 1, 5, 6, 7, 100, 2049, 5000])
def test_first_primes_agrees_with_trial_division(count, first_5000_primes):
    assert _first_primes(count) == first_5000_primes[:count]


def test_same_inputs_same_seed():
    assert per_rank_seed(42, 3) == per_rank_seed(42, 3)


def test_different_ranks_different_seeds():
    seeds = {per_rank_seed(7, r) for r in range(200)}
    assert len(seeds) == 200


def test_different_base_seeds_different_seeds():
    assert per_rank_seed(1, 0) != per_rank_seed(2, 0)


def test_negative_rank_rejected():
    with pytest.raises(ValueError):
        per_rank_seed(0, -1)


def test_large_rank_supported():
    assert per_rank_seed(0, 1500) >= 0
