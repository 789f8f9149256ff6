"""Property tests for the block partition invariants (ISSUE 1).

The whole distributed layer rests on these: the blocks must cover every
index exactly once and be balanced to within one element.  Hypothesis
exercises the full (n, p) space including the degenerate p > n corner.
"""

import pytest
from hypothesis import given, strategies as st

from repro.dist.partition import block_counts, block_range
from repro.util.errors import PartitionError

sizes = st.integers(min_value=0, max_value=500)
nparts = st.integers(min_value=1, max_value=64)


@given(n=sizes, p=nparts)
def test_counts_sum_to_n(n, p):
    assert sum(block_counts(n, p)) == n


@given(n=sizes, p=nparts)
def test_counts_balanced_within_one(n, p):
    counts = block_counts(n, p)
    assert max(counts) - min(counts) <= 1


@given(n=sizes, p=nparts)
def test_counts_are_nonincreasing(n, p):
    # Remainder is spread over the *first* blocks, matching the communicator's
    # default reduce-scatter counts.
    counts = block_counts(n, p)
    assert all(a >= b for a, b in zip(counts, counts[1:]))


@given(n=sizes, p=nparts)
def test_ranges_tile_the_index_space(n, p):
    ranges = [block_range(n, p, r) for r in range(p)]
    # In order, contiguous, covering [0, n) exactly.
    assert ranges[0][0] == 0
    assert ranges[-1][1] == n
    for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
        assert hi == lo


@given(n=sizes, p=nparts)
def test_ranges_match_counts(n, p):
    counts = block_counts(n, p)
    for r in range(p):
        lo, hi = block_range(n, p, r)
        assert (lo, hi) == (sum(counts[:r]), sum(counts[:r + 1]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: block_counts(-1, 2),
        lambda: block_counts(10, 0),
        lambda: block_range(10, 3, 3),
        lambda: block_range(10, 3, -1),
    ],
)
def test_invalid_arguments_raise(call):
    with pytest.raises(PartitionError):
        call()
