"""Tests for the distributed factor layout of Algorithm 3 (Figure 2).

The ownership invariants under test are the ones the paper's correctness
rests on: the p sub-block ranges tile the factor's global axis, the
row/column all-gathers reconstruct exactly ``W_i`` / ``H_j``, and the
sub-blocking agrees with the reduce-scatter counts used in the iteration.
"""

import numpy as np
import pytest

from repro.comm.backends import run_spmd
from repro.comm.grid import ProcessGrid
from repro.dist.factors import DistributedFactorH, DistributedFactorW
from repro.dist.partition import block_counts, block_range

GRIDS = [(1, 1, 1), (2, 2, 1), (2, 1, 2), (4, 2, 2), (6, 3, 2), (6, 2, 3)]


def spmd(p, pr, pc, program):
    def wrapper(comm):
        return program(ProcessGrid(comm, pr, pc))

    return run_spmd(p, wrapper)


@pytest.mark.parametrize("p,pr,pc", GRIDS)
def test_w_ranges_tile_rows(p, pr, pc):
    m, k = 23, 4

    def program(grid):
        return grid.coords, DistributedFactorW(grid, m, k).global_range

    out = spmd(p, pr, pc, program)
    covered = np.zeros(m, dtype=int)
    for _, (lo, hi) in out:
        covered[lo:hi] += 1
    assert np.all(covered == 1), "W sub-blocks must tile [0, m) exactly once"
    # Sub-blocks of one grid row stay inside that row's W_i block.
    for (i, j), (lo, hi) in out:
        r0, r1 = block_range(m, pr, i)
        assert r0 <= lo <= hi <= r1


@pytest.mark.parametrize("p,pr,pc", GRIDS)
def test_h_ranges_tile_columns(p, pr, pc):
    k, n = 3, 17

    def program(grid):
        return grid.coords, DistributedFactorH(grid, k, n).global_range

    out = spmd(p, pr, pc, program)
    covered = np.zeros(n, dtype=int)
    for _, (lo, hi) in out:
        covered[lo:hi] += 1
    assert np.all(covered == 1), "H sub-blocks must tile [0, n) exactly once"
    for (i, j), (lo, hi) in out:
        c0, c1 = block_range(n, pc, j)
        assert c0 <= lo <= hi <= c1


@pytest.mark.parametrize("p,pr,pc", GRIDS)
def test_row_block_allgather_reconstructs_w_i(p, pr, pc):
    m, k = 19, 3
    W_global = np.random.default_rng(0).random((m, k))

    def program(grid):
        fac = DistributedFactorW(grid, m, k)
        lo, hi = fac.global_range
        fac.local = W_global[lo:hi]
        W_i = fac.row_block()
        r0, r1 = block_range(m, pr, grid.coords[0])
        np.testing.assert_array_equal(W_i, W_global[r0:r1])
        return True

    assert all(spmd(p, pr, pc, program))


@pytest.mark.parametrize("p,pr,pc", GRIDS)
def test_col_block_allgather_reconstructs_h_j(p, pr, pc):
    k, n = 4, 26
    H_global = np.random.default_rng(1).random((k, n))

    def program(grid):
        fac = DistributedFactorH(grid, k, n)
        lo, hi = fac.global_range
        fac.local = H_global[:, lo:hi]
        H_j = fac.col_block()
        c0, c1 = block_range(n, pc, grid.coords[1])
        np.testing.assert_array_equal(H_j, H_global[:, c0:c1])
        return True

    assert all(spmd(p, pr, pc, program))


@pytest.mark.parametrize("p,pr,pc", [(4, 2, 2), (6, 3, 2), (6, 2, 3)])
def test_subblocking_matches_reduce_scatter_counts(p, pr, pc):
    """The (W_i)_j / (H_j)_i splits must equal block_counts of the local axes.

    hpc_nmf.py reduce-scatters V_ij with counts=block_counts(local_rows, pc)
    over the row communicator; each rank must receive exactly its own
    sub-block for the algorithm to need no redistribution step.
    """
    m, k, n = 21, 3, 16

    def program(grid):
        W = DistributedFactorW(grid, m, k)
        H = DistributedFactorH(grid, k, n)
        local_rows = block_range(m, pr, grid.coords[0])
        local_cols = block_range(n, pc, grid.coords[1])
        w_counts = block_counts(local_rows[1] - local_rows[0], pc)
        h_counts = block_counts(local_cols[1] - local_cols[0], pr)
        assert W.global_range[1] - W.global_range[0] == w_counts[grid.coords[1]]
        assert H.global_range[1] - H.global_range[0] == h_counts[grid.coords[0]]
        # The in-row/in-column offsets agree with the scatter boundaries.
        assert W.block_range_in_row[0] == sum(w_counts[: grid.coords[1]])
        assert H.block_range_in_col[0] == sum(h_counts[: grid.coords[0]])
        return True

    assert all(spmd(p, pr, pc, program))


def test_factors_hold_the_block_they_are_given():
    """Built as the fit builds them: the layout allocates no block, and the
    block assigned is the one held (no copy)."""
    def program(grid):
        fac = DistributedFactorW(grid, 12, 2)
        assert fac.local is None
        lo, hi = fac.global_range
        block = np.ones((hi - lo, 2))
        fac.local = block
        assert fac.local is block
        return float(fac.local.sum())

    totals = spmd(4, 2, 2, program)
    assert sum(totals) == 12 * 2
