"""Tests for the distributed data-matrix containers.

The key guarantees: every global entry lands in exactly one 2D block
(round-trip reassembly), and the one block cut hands Algorithm 2's ranks
consistent row/column blocks.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.comm.backends import run_spmd
from repro.comm.grid import ProcessGrid
from repro.core.api import fit
from repro.dist.distmatrix import DistMatrix2D, cut_block
from repro.dist.partition import block_range


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

    @pytest.mark.parametrize("p,pr,pc", GRIDS)
    def test_sparse_blocks_tile_global_matrix(self, p, pr, pc):
        A = sp.random(18, 25, density=0.3, random_state=4, format="csr")

        def program(grid):
            d = DistMatrix2D.from_global(grid, A)
            assert sp.issparse(d.block)
            return d.row_range, d.col_range, d.block

        out = spmd_blocks(p, pr, pc, program)
        assembled = np.full(A.shape, np.nan)
        for (r0, r1), (c0, c1), block in out:
            assert np.all(np.isnan(assembled[r0:r1, c0:c1])), "blocks overlap"
            assembled[r0:r1, c0:c1] = block.toarray()
        np.testing.assert_array_equal(assembled, A.toarray())
        assert sum(block.nnz for _, _, block in out) == A.nnz

    @pytest.mark.parametrize("p,pr,pc", [(4, 2, 2), (6, 3, 2)])
    def test_sparse_blocks_match_dense_blocks(self, p, pr, pc):
        A = sp.random(30, 22, density=0.2, random_state=1, format="csr")
        dense = A.toarray()

        def program(grid):
            d = DistMatrix2D.from_global(grid, A)
            assert sp.issparse(d.block)
            return d.block.toarray(), DistMatrix2D.from_global(grid, dense).block

        for sparse_block, dense_block in spmd_blocks(p, pr, pc, program):
            np.testing.assert_array_equal(sparse_block, dense_block)

    def test_non_csr_sparse_formats_accepted(self):
        # COO (scipy.io.mmread's default) doesn't support slicing; from_global
        # must normalise the format instead of crashing.
        A = sp.coo_matrix(sp.random(20, 15, density=0.2, random_state=7))

        def program(grid):
            return DistMatrix2D.from_global(grid, A).block.toarray(), \
                DistMatrix2D.from_global(grid, A.tocsr()).block.toarray()

        for coo_block, csr_block in spmd_blocks(4, 2, 2, program):
            np.testing.assert_array_equal(coo_block, csr_block)
        row_block = cut_block(A, (7, 14), (0, 15))
        np.testing.assert_array_equal(row_block.toarray(), A.toarray()[7:14])

    def test_duplicate_entries_are_canonicalised(self):
        # Two stored entries at one position (value 1+2=3): the norms both
        # layouts compute from .data must see the summed value, and the
        # caller's matrix must not be mutated in the process.
        A = sp.csr_matrix(
            (np.array([1.0, 2.0]), np.array([0, 0]), np.array([0, 2, 2, 2, 2])),
            shape=(4, 4),
        )
        row_block = cut_block(A, (0, 2), (0, 4))
        assert float(row_block.data @ row_block.data) == 9.0
        assert A.nnz == 2, "caller's matrix must stay untouched"

        def program(grid):
            d = DistMatrix2D.from_global(grid, A)
            return d.frobenius_norm_squared(), d.block.nnz

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


def _naive_blocks(A, rank, p):
    """Rank ``rank``-of-``p``'s row and column blocks, as Algorithm 2 cuts them."""
    m, n = A.shape
    rows, cols = block_range(m, p, rank), block_range(n, p, rank)
    return cut_block(A, rows, (0, n)), cut_block(A, (0, m), cols), rows, cols


class TestAlgorithm2Blocks:
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_row_and_col_blocks_reassemble(self, p):
        A = np.random.default_rng(5).random((17, 13))
        blocks = [_naive_blocks(A, r, p) for r in range(p)]
        np.testing.assert_array_equal(np.vstack([b[0] for b in blocks]), A)
        np.testing.assert_array_equal(np.hstack([b[1] for b in blocks]), A)

    def test_sparse_blocks_consistent_with_dense(self):
        A = sp.random(20, 14, density=0.25, random_state=6, format="csr")
        for rank in range(4):
            row_block, col_block, _, _ = _naive_blocks(A, rank, 4)
            assert row_block.format == col_block.format == "csr"
            dense_row, dense_col, _, _ = _naive_blocks(A.toarray(), rank, 4)
            np.testing.assert_array_equal(row_block.toarray(), dense_row)
            np.testing.assert_array_equal(col_block.toarray(), dense_col)

    def test_ranges_are_independent_per_axis(self):
        # A 10 x 4 matrix on 3 ranks: row and column partitions differ.
        A = np.arange(40, dtype=float).reshape(10, 4)
        row_block, col_block, rows, cols = _naive_blocks(A, 1, 3)
        assert rows == (4, 7)
        assert cols == (2, 3)
        assert row_block.shape == (3, 4)
        assert col_block.shape == (10, 1)


def _split_in_three(A):
    """Every stored entry of ``A`` stored three times at a third of its value,
    each row's entries reversed: a CSR that is neither summed nor sorted."""
    reps = 3
    indptr = reps * A.indptr
    indices, data = np.repeat(A.indices, reps), np.repeat(A.data, reps) / reps
    for r in range(A.shape[0]):
        s, e = indptr[r], indptr[r + 1]
        indices[s:e], data[s:e] = indices[s:e][::-1].copy(), data[s:e][::-1].copy()
    raw = sp.csr_matrix((data, indices, indptr), shape=A.shape)
    assert not raw.has_canonical_format
    return raw


@pytest.mark.parametrize("variant,p", [("naive", 2), ("naive", 3), ("hpc1d", 3), ("hpc2d", 4)])
def test_a_duplicate_coordinate_input_fits_its_summed_bits(variant, p):
    """Every block cut sums a block's duplicates after slicing it, so a fit of
    a duplicate-coordinate CSR reads the same bytes as the fit of that CSR
    with its duplicates summed: sha256(``W‖H``), the history and the ledger."""
    raw = _split_in_three(sp.random(60, 40, density=0.1, random_state=8, format="csr"))
    summed = raw.copy()
    summed.sum_duplicates()
    assert summed.nnz * 3 == raw.nnz
    kwargs = dict(variant=variant, backend="thread", n_ranks=p, max_iters=3, seed=9)
    got, want = fit(raw, 3, **kwargs), fit(summed, 3, **kwargs)
    assert got.W.tobytes() == want.W.tobytes()
    assert got.H.tobytes() == want.H.tobytes()
    assert [(s.objective, s.relative_error) for s in got.history] == \
        [(s.objective, s.relative_error) for s in want.history]
    assert got.ledger_summary == want.ledger_summary
    assert raw.nnz == summed.nnz * 3, "the caller's matrix must stay untouched"
