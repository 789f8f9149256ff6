"""Property tests: the point-to-point movers on non-power-of-two sizes.

The fold/unfold adaptation (MPICH's scheme) must make recursive doubling
agree with the plain reference for communicator sizes that are *not* powers
of two — the regime the original algorithm does not cover — and the slice
exchange must hand every rank its slice of every contribution for any split.
Runs on the lockstep backend so each hypothesis example is deterministic and
cheap.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import run_spmd
from repro.comm.collectives import recursive_doubling_allgather, slice_exchange
from repro.comm.communicator import rank_order_sum

NON_POWER_OF_TWO_SIZES = [3, 5, 6, 7]


def _locals(p, rows, cols, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((rows, cols)) for _ in range(p)]


def _integer_locals(p, rows, cols, seed):
    """Integer-valued floats: their sum is exact in any order, so the
    reference is plain ``np.sum`` and the check is bitwise."""
    rng = np.random.default_rng(seed)
    return [rng.integers(-1000, 1000, (rows, cols)).astype(float) for _ in range(p)]


@pytest.mark.parametrize("p", NON_POWER_OF_TWO_SIZES)
@given(rows=st.integers(1, 4), cols=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_recursive_doubling_allgather_matches_reference(p, rows, cols, seed):
    locals_ = _locals(p, rows, cols, seed)

    def program(comm):
        return recursive_doubling_allgather(comm, locals_[comm.rank])

    for gathered in run_spmd(p, program, backend="lockstep"):
        assert len(gathered) == p
        for block, reference in zip(gathered, locals_):
            np.testing.assert_array_equal(block, reference)


@pytest.mark.parametrize("p", NON_POWER_OF_TWO_SIZES)
@given(data=st.data(), cols=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_recursive_doubling_allgather_keeps_ragged_blocks(p, data, cols, seed):
    # Blocks of different lengths (empty ones included), as allgatherv moves.
    rows = data.draw(st.lists(st.integers(0, 3), min_size=p, max_size=p))
    rng = np.random.default_rng(seed)
    locals_ = [rng.standard_normal((n, cols)) for n in rows]

    def program(comm):
        return recursive_doubling_allgather(comm, locals_[comm.rank])

    for gathered in run_spmd(p, program, backend="lockstep"):
        assert len(gathered) == p
        for block, reference in zip(gathered, locals_):
            assert block.shape == reference.shape
            np.testing.assert_array_equal(block, reference)


@pytest.mark.parametrize("p", NON_POWER_OF_TWO_SIZES)
@given(
    data=st.data(),
    axis=st.integers(0, 1),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=10, deadline=None)
def test_slice_exchange_matches_reference(p, data, axis, seed):
    # Any split, ranks that own nothing included.
    counts = data.draw(st.lists(st.integers(0, 3), min_size=p, max_size=p))
    n = sum(counts)
    shape = (n, 2) if axis == 0 else (2, n)
    locals_ = _integer_locals(p, *shape, seed)
    reduced = np.sum(locals_, axis=0)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(int)

    def program(comm):
        pieces = slice_exchange(comm, locals_[comm.rank], counts, axis=axis)
        return rank_order_sum(pieces)

    for rank, piece in enumerate(run_spmd(p, program, backend="lockstep")):
        expected = np.take(reduced, range(offsets[rank], offsets[rank + 1]), axis=axis)
        assert piece.shape == expected.shape
        np.testing.assert_array_equal(piece, expected)


@pytest.mark.parametrize("p", NON_POWER_OF_TWO_SIZES)
@given(
    blocks=st.integers(1, 3),
    extra=st.integers(0, 4),
    cols=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=10, deadline=None)
def test_collectives_over_the_movers_match_reference(p, blocks, extra, cols, seed):
    """The p2p bodies of ``allreduce`` and ``reduce_scatter`` on any length."""
    # Total length deliberately not a multiple of p whenever extra > 0.
    rows = p * blocks + extra
    locals_ = _integer_locals(p, rows, cols, seed)
    reduced = np.sum(locals_, axis=0)
    base, rem = divmod(rows, p)
    counts = [base + (1 if r < rem else 0) for r in range(p)]
    offsets = np.concatenate(([0], np.cumsum(counts)))

    def program(comm):
        local = locals_[comm.rank]
        total = rank_order_sum(recursive_doubling_allgather(comm, local))
        piece = rank_order_sum(slice_exchange(comm, local, counts))
        return total, piece

    for rank, (total, piece) in enumerate(run_spmd(p, program, backend="lockstep")):
        np.testing.assert_array_equal(total, reduced)
        lo, hi = offsets[rank], offsets[rank + 1]
        np.testing.assert_array_equal(piece, reduced[lo:hi])
