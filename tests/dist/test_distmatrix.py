"""Tests for the distributed data-matrix containers.

The key guarantees: every global entry lands in exactly one 2D block
(round-trip reassembly), the generator path produces bit-identical blocks to
slicing a global matrix, and the 1D double partition hands each rank
consistent row/column blocks.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.comm.backends import run_spmd
from repro.comm.grid import ProcessGrid
from repro.dist.distmatrix import DistMatrix2D, DoublePartitioned1D
from repro.util.errors import ShapeError


def spmd_blocks(p, pr, pc, program):
    """Run ``program(grid)`` on p ranks arranged as a pr x pc grid."""

    def wrapper(comm):
        return program(ProcessGrid(comm, pr, pc))

    return run_spmd(p, wrapper)


GRIDS = [(1, 1, 1), (2, 2, 1), (2, 1, 2), (4, 2, 2), (6, 3, 2), (6, 2, 3)]


class TestDistMatrix2D:
    @pytest.mark.parametrize("p,pr,pc", GRIDS)
    def test_blocks_tile_global_matrix(self, p, pr, pc):
        A = np.random.default_rng(0).random((23, 17))   # indivisible on purpose

        def program(grid):
            d = DistMatrix2D.from_global(grid, A)
            return d.row_range, d.col_range, d.block

        out = spmd_blocks(p, pr, pc, program)
        assembled = np.full(A.shape, np.nan)
        for (r0, r1), (c0, c1), block in out:
            assert np.all(np.isnan(assembled[r0:r1, c0:c1])), "blocks overlap"
            assembled[r0:r1, c0:c1] = block
        np.testing.assert_array_equal(assembled, A)

    @pytest.mark.parametrize("p,pr,pc", [(4, 2, 2), (6, 3, 2)])
    def test_sparse_blocks_match_dense_blocks(self, p, pr, pc):
        A = sp.random(30, 22, density=0.2, random_state=1, format="csr")
        dense = A.toarray()

        def program(grid):
            d = DistMatrix2D.from_global(grid, A)
            assert d.is_sparse
            assert d.local_nnz == d.block.nnz
            return d.block.toarray(), DistMatrix2D.from_global(grid, dense).block

        for sparse_block, dense_block in spmd_blocks(p, pr, pc, program):
            np.testing.assert_array_equal(sparse_block, dense_block)

    @pytest.mark.parametrize("p,pr,pc", GRIDS)
    def test_generator_path_matches_from_global(self, p, pr, pc):
        A = np.random.default_rng(2).random((19, 26))

        def gen(row_range, col_range, rank):
            return A[row_range[0]:row_range[1], col_range[0]:col_range[1]]

        def program(grid):
            direct = DistMatrix2D.from_global(grid, A)
            generated = DistMatrix2D.from_block_generator(grid, A.shape, gen)
            np.testing.assert_array_equal(generated.block, direct.block)
            assert generated.row_range == direct.row_range
            assert generated.col_range == direct.col_range
            return True

        assert all(spmd_blocks(p, pr, pc, program))

    def test_generator_wrong_shape_rejected(self):
        def bad_gen(row_range, col_range, rank):
            return np.zeros((1, 1))

        def program(grid):
            with pytest.raises(ShapeError):
                DistMatrix2D.from_block_generator(grid, (8, 8), bad_gen)
            return True

        assert all(spmd_blocks(4, 2, 2, program))

    def test_non_csr_sparse_formats_accepted(self):
        # COO (scipy.io.mmread's default) doesn't support slicing; from_global
        # must normalise the format instead of crashing.
        A = sp.coo_matrix(sp.random(20, 15, density=0.2, random_state=7))

        def program(grid):
            return DistMatrix2D.from_global(grid, A).block.toarray(), \
                DistMatrix2D.from_global(grid, A.tocsr()).block.toarray()

        for coo_block, csr_block in spmd_blocks(4, 2, 2, program):
            np.testing.assert_array_equal(coo_block, csr_block)
        d = DoublePartitioned1D.from_global(1, 3, A)
        np.testing.assert_array_equal(
            np.asarray(d.row_block.todense()), A.toarray()[7:14]
        )

    def test_duplicate_entries_are_canonicalised(self):
        # Two stored entries at one position (value 1+2=3): the norms both
        # layouts compute from .data must see the summed value, and the
        # caller's matrix must not be mutated in the process.
        A = sp.csr_matrix(
            (np.array([1.0, 2.0]), np.array([0, 0]), np.array([0, 2, 2, 2, 2])),
            shape=(4, 4),
        )
        d1 = DoublePartitioned1D.from_global(0, 2, A)
        assert float(d1.row_block.data @ d1.row_block.data) == 9.0
        assert A.nnz == 2, "caller's matrix must stay untouched"

        def program(grid):
            d = DistMatrix2D.from_global(grid, A)
            return d.frobenius_norm_squared(), d.local_nnz

        for norm, _ in spmd_blocks(4, 2, 2, program):
            assert norm == 9.0
        # A 1 × 1 grid's block is the whole matrix: still a copy when the
        # input is not canonical.
        assert spmd_blocks(1, 1, 1, program) == [(9.0, 1)]
        assert A.nnz == 2, "caller's matrix must stay untouched"

    def test_whole_canonical_sparse_matrix_is_kept(self):
        """A 1 × 1 grid (Algorithm 1) keeps a canonical CSR input as its block
        instead of slicing a copy of it."""
        A = sp.random(12, 9, density=0.3, random_state=2, format="csr")
        assert A.has_canonical_format
        (kept,) = spmd_blocks(1, 1, 1, lambda grid: DistMatrix2D.from_global(grid, A).block)
        assert kept is A
        (sliced,) = spmd_blocks(2, 2, 1, lambda grid: DistMatrix2D.from_global(grid, A).block)[:1]
        assert sliced is not A

    def test_frobenius_norm_is_global(self):
        A = np.random.default_rng(3).random((21, 15))
        expected = float(np.vdot(A, A))

        def program(grid):
            return DistMatrix2D.from_global(grid, A).frobenius_norm_squared()

        for got in spmd_blocks(6, 2, 3, program):
            assert got == pytest.approx(expected, rel=1e-12)

    def test_to_global_round_trip(self):
        A = sp.random(18, 25, density=0.3, random_state=4, format="csr")

        def program(grid):
            return DistMatrix2D.from_global(grid, A).to_global()

        for reassembled in spmd_blocks(4, 2, 2, program):
            np.testing.assert_array_equal(reassembled, A.toarray())


class TestDoublePartitioned1D:
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_row_and_col_blocks_reassemble(self, p):
        A = np.random.default_rng(5).random((17, 13))
        by_rows = np.vstack(
            [DoublePartitioned1D.from_global(r, p, A).row_block for r in range(p)]
        )
        by_cols = np.hstack(
            [DoublePartitioned1D.from_global(r, p, A).col_block for r in range(p)]
        )
        np.testing.assert_array_equal(by_rows, A)
        np.testing.assert_array_equal(by_cols, A)

    def test_sparse_blocks_consistent_with_dense(self):
        A = sp.random(20, 14, density=0.25, random_state=6, format="csr")
        for rank in range(4):
            d = DoublePartitioned1D.from_global(rank, 4, A)
            assert d.is_sparse
            dd = DoublePartitioned1D.from_global(rank, 4, A.toarray())
            np.testing.assert_array_equal(np.asarray(d.row_block.todense()), dd.row_block)
            np.testing.assert_array_equal(np.asarray(d.col_block.todense()), dd.col_block)
            assert d.row_range == dd.row_range
            assert d.col_range == dd.col_range

    def test_ranges_are_independent_per_axis(self):
        # A 10 x 4 matrix on 3 ranks: row and column partitions differ.
        A = np.arange(40, dtype=float).reshape(10, 4)
        d = DoublePartitioned1D.from_global(1, 3, A)
        assert d.row_range == (4, 7)
        assert d.col_range == (2, 3)
        assert d.row_block.shape == (3, 4)
        assert d.col_block.shape == (10, 1)
