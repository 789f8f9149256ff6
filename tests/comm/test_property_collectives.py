"""Hypothesis property tests for the communicator collectives.

Invariants: for any rank count, any array shape and any data, the collectives
must equal their numpy single-process references, and reductions must be
bitwise identical on every rank.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import run_spmd


array_shapes = st.tuples(st.integers(1, 6), st.integers(1, 5))


@given(
    p=st.integers(1, 6),
    shape=array_shapes,
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_allreduce_equals_numpy_sum(p, shape, seed):
    def program(comm):
        rng = np.random.default_rng(seed + comm.rank)
        local = rng.standard_normal(shape)
        return comm.allreduce(local), local

    results = run_spmd(p, program)
    expected = sum(local for _, local in results)
    for total, _ in results:
        np.testing.assert_allclose(total, expected, rtol=1e-12)


@given(
    p=st.integers(1, 6),
    cols=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_allgatherv_equals_concatenation(p, cols, seed):
    def program(comm):
        rng = np.random.default_rng(seed + comm.rank)
        local = rng.standard_normal((comm.rank + 1, cols))
        return comm.allgatherv(local, axis=0), local

    results = run_spmd(p, program)
    expected = np.concatenate([local for _, local in results], axis=0)
    for gathered, _ in results:
        np.testing.assert_array_equal(gathered, expected)


@given(
    p=st.integers(1, 5),
    rows_per_rank=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_reduce_scatter_is_allreduce_then_slice(p, rows_per_rank, seed):
    total_rows = p * rows_per_rank

    def program(comm):
        # Integer-valued floats: the sum is exact, so every slice must be
        # the full sum's rows bit for bit, and equal np.sum's.
        rng = np.random.default_rng(seed + 31 * comm.rank)
        local = rng.integers(-1000, 1000, (total_rows, 2)).astype(float)
        piece = comm.reduce_scatter(local)
        full = comm.allreduce(local)
        return piece, full, local

    results = run_spmd(p, program)
    expected = np.sum([local for _, _, local in results], axis=0)
    for rank, (piece, full, _) in enumerate(results):
        lo, hi = rank * rows_per_rank, (rank + 1) * rows_per_rank
        np.testing.assert_array_equal(full, expected)
        np.testing.assert_array_equal(piece, full[lo:hi])
