"""Tests for the DSYN/SSYN generators."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.synthetic import dense_synthetic, sparse_synthetic


class TestDenseSynthetic:
    def test_shape_and_nonnegativity(self):
        A = dense_synthetic(50, 40, seed=0)
        assert A.shape == (50, 40)
        assert np.all(A >= 0)

    def test_deterministic_in_seed(self):
        np.testing.assert_array_equal(dense_synthetic(20, 10, seed=5), dense_synthetic(20, 10, seed=5))
        assert not np.allclose(dense_synthetic(20, 10, seed=5), dense_synthetic(20, 10, seed=6))

    def test_noise_changes_values_but_not_range_much(self):
        clean = dense_synthetic(100, 80, seed=1, noise_std=0.0)
        noisy = dense_synthetic(100, 80, seed=1, noise_std=0.05)
        assert not np.allclose(clean, noisy)
        assert abs(clean.mean() - noisy.mean()) < 0.05

    def test_uniform_statistics(self):
        A = dense_synthetic(200, 150, seed=2, noise_std=0.0)
        assert 0.45 < A.mean() < 0.55
        assert A.max() <= 1.0


class TestSparseSynthetic:
    def test_density_close_to_requested(self):
        A = sparse_synthetic(500, 400, density=0.01, seed=0)
        assert sp.issparse(A) and A.format == "csr"
        observed = A.nnz / (500 * 400)
        assert observed == pytest.approx(0.01, rel=0.3)

    def test_values_positive(self):
        A = sparse_synthetic(100, 100, density=0.05, seed=1)
        assert np.all(A.data > 0)

    def test_binary_values(self):
        A = sparse_synthetic(100, 100, density=0.05, seed=1, value_distribution="binary")
        assert set(np.unique(A.data)) == {1.0}

    def test_deterministic_in_seed(self):
        A = sparse_synthetic(80, 60, density=0.05, seed=3)
        B = sparse_synthetic(80, 60, density=0.05, seed=3)
        assert (A != B).nnz == 0

    def test_invalid_density_rejected(self):
        with pytest.raises(ValueError):
            sparse_synthetic(10, 10, density=0.0)
        with pytest.raises(ValueError):
            sparse_synthetic(10, 10, density=1.5)

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError):
            sparse_synthetic(10, 10, density=0.1, value_distribution="poisson")
