"""Tests for the sparse load-balance diagnostics and mitigation."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.webgraph import web_graph_matrix
from repro.dist.load_balance import (
    imbalance_factor,
    nnz_per_block,
    random_permutation_balance,
    unpermute_factors,
)
from repro.util.errors import PartitionError


class TestImbalanceFactor:
    def test_uniform_dense_matrix_is_perfectly_balanced(self):
        A = np.ones((16, 16))
        report = imbalance_factor(A, 4, 4)
        assert report.imbalance == pytest.approx(1.0)
        assert report.max_nnz == report.min_nnz == 16

    def test_counts_sum_to_total_nnz(self):
        A = sp.random(40, 30, density=0.1, random_state=0, format="csr")
        for grid in ((1, 1), (2, 3), (4, 4), (7, 5)):
            counts = nnz_per_block(A, *grid)
            assert counts.shape == grid
            assert counts.sum() == A.nnz

    def test_imbalance_lower_bound(self):
        A = sp.random(50, 50, density=0.05, random_state=1, format="csr")
        for grid in ((2, 2), (5, 5)):
            assert imbalance_factor(A, *grid).imbalance >= 1.0

    def test_concentrated_matrix_maximally_imbalanced(self):
        # All nonzeros inside one block: imbalance == number of blocks.
        A = np.zeros((8, 8))
        A[:4, :4] = 1.0
        report = imbalance_factor(A, 2, 2)
        assert report.imbalance == pytest.approx(4.0)

    def test_empty_matrix_reports_one(self):
        assert imbalance_factor(np.zeros((6, 6)), 2, 2).imbalance == 1.0

    def test_blocks_match_partition_boundaries(self):
        # 5 rows over 2 blocks -> first block gets 3 rows (remainder first).
        A = np.zeros((5, 4))
        A[2, :] = 1.0   # row 2 belongs to block 0 of [0,3) / [3,5)
        counts = nnz_per_block(A, 2, 1)
        assert counts[0, 0] == 4 and counts[1, 0] == 0

    def test_invalid_grid_rejected(self):
        with pytest.raises(PartitionError):
            imbalance_factor(np.ones((4, 4)), 0, 2)


class TestRandomPermutationBalance:
    def test_permutation_is_a_relabeling(self):
        A = sp.random(25, 18, density=0.2, random_state=2, format="csr")
        permuted, row_perm, col_perm = random_permutation_balance(A, seed=3)
        assert permuted.shape == A.shape
        assert permuted.nnz == A.nnz
        np.testing.assert_array_equal(
            permuted.toarray(), A.toarray()[np.ix_(row_perm, col_perm)]
        )

    def test_dense_input_supported(self):
        A = np.random.default_rng(4).random((10, 12))
        permuted, row_perm, col_perm = random_permutation_balance(A, seed=5)
        np.testing.assert_array_equal(permuted, A[np.ix_(row_perm, col_perm)])

    def test_deterministic_in_seed(self):
        A = sp.random(20, 20, density=0.1, random_state=6, format="csr")
        p1, r1, c1 = random_permutation_balance(A, seed=7)
        p2, r2, c2 = random_permutation_balance(A, seed=7)
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(p1.toarray(), p2.toarray())

    def test_improves_adversarial_concentration(self):
        # Hubs packed into the top-left corner: the permutation must spread them.
        A = np.zeros((64, 64))
        A[:8, :8] = 1.0
        before = imbalance_factor(A, 4, 4).imbalance
        permuted, _, _ = random_permutation_balance(A, seed=8)
        after = imbalance_factor(permuted, 4, 4).imbalance
        assert before == pytest.approx(16.0)
        assert after < before

    def test_does_not_hurt_web_graph_balance(self):
        A = web_graph_matrix(1000, 10_000, seed=9)
        permuted, _, _ = random_permutation_balance(A, seed=1)
        for grid in ((2, 2), (4, 4)):
            before = imbalance_factor(A, *grid).imbalance
            after = imbalance_factor(permuted, *grid).imbalance
            assert after <= before * 1.25

    def test_does_not_hurt_web_graph_balance_on_finer_grids(self):
        # §7's anticipated mitigation, at the ablation's size and grids.
        A = web_graph_matrix(4_000, 40_000, seed=9)
        permuted, _, _ = random_permutation_balance(A, seed=1)
        for grid in ((2, 2), (4, 4), (8, 8)):
            before = imbalance_factor(A, *grid).imbalance
            after = imbalance_factor(permuted, *grid).imbalance
            assert after <= before * 1.25, grid

    def test_unpermute_round_trips_factors(self):
        rng = np.random.default_rng(10)
        W, H = rng.random((12, 3)), rng.random((3, 9))
        row_perm, col_perm = rng.permutation(12), rng.permutation(9)
        W_back, H_back = unpermute_factors(W[row_perm], H[:, col_perm], row_perm, col_perm)
        np.testing.assert_array_equal(W_back, W)
        np.testing.assert_array_equal(H_back, H)
