"""Tests for the sequential ANLS reference (Algorithm 1)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.api import fit
from repro.core.config import NMFConfig
from repro.data.lowrank import planted_lowrank
from repro.util.errors import NonNegativityError, ShapeError


class TestBasicBehaviour:
    def test_shapes_and_nonnegativity(self):
        A = np.abs(np.random.default_rng(0).standard_normal((40, 30)))
        res = fit(A, k=5, variant="sequential", max_iters=5, seed=3)
        assert res.W.shape == (40, 5)
        assert res.H.shape == (5, 30)
        assert np.all(res.W >= 0)
        assert np.all(res.H >= 0)
        assert res.iterations == 5

    def test_objective_decreases_monotonically_with_bpp(self):
        A = planted_lowrank(50, 35, 4, seed=1, noise_std=0.05)
        res = fit(A, k=4, variant="sequential", max_iters=15, seed=0)
        errors = res.relative_error_history
        assert all(b <= a + 1e-8 for a, b in zip(errors, errors[1:]))

    def test_recovers_planted_low_rank_structure(self):
        A = planted_lowrank(60, 45, 3, seed=2, noise_std=0.0)
        res = fit(A, k=3, variant="sequential", max_iters=60, seed=5)
        # Exact recovery of a planted factorization is NP-hard in general;
        # ANLS should still get within a fraction of a percent of the data.
        assert res.relative_error < 0.01

    @pytest.mark.parametrize("solver", ["bpp", "mu", "hals"])
    def test_all_solvers_reduce_error(self, solver):
        A = planted_lowrank(40, 30, 4, seed=3, noise_std=0.01)
        res = fit(A, k=4, variant="sequential", max_iters=20, solver=solver, seed=1)
        assert res.relative_error < 0.5
        history = res.relative_error_history
        assert history[-1] <= history[0]

    def test_sparse_input(self):
        A = sp.random(60, 50, density=0.1, random_state=0, format="csr")
        res = fit(A, k=4, variant="sequential", max_iters=5, seed=1)
        assert res.W.shape == (60, 4)
        assert res.relative_error <= 1.0

    def test_rank_one(self):
        A = np.outer(np.arange(1, 11, dtype=float), np.arange(1, 8, dtype=float))
        res = fit(A, k=1, variant="sequential", max_iters=20, seed=0)
        assert res.relative_error < 1e-6


class TestConfiguration:
    def test_early_stopping_with_tolerance(self):
        A = planted_lowrank(40, 30, 3, seed=4)
        res = fit(A, k=3, variant="sequential", max_iters=200, tol=1e-6, seed=2)
        assert res.converged
        assert res.iterations < 200

    def test_compute_error_false_skips_history(self):
        A = np.abs(np.random.default_rng(1).standard_normal((20, 15)))
        res = fit(A, k=3, variant="sequential", max_iters=4, compute_error=False)
        assert res.history == []
        assert np.isnan(res.relative_error)

    def test_sequential_is_algorithm_3_on_one_rank(self):
        """``sequential`` runs Algorithm 3's loop in process: hpc2d's bits at
        p = 1, and no backend or grid recorded."""
        A = np.abs(np.random.default_rng(2).standard_normal((20, 15)))
        res = fit(A, config=NMFConfig(k=3, max_iters=4, seed=2), variant="sequential")
        hpc = fit(A, k=3, variant="hpc2d", n_ranks=1, max_iters=4, seed=2)
        assert res.W.tobytes() == hpc.W.tobytes() and res.H.tobytes() == hpc.H.tobytes()
        assert (res.variant, res.backend, res.grid_shape) == ("sequential", None, None)
        assert res.ledger_summary == {}

    def test_same_seed_reproducible(self):
        A = np.abs(np.random.default_rng(3).standard_normal((25, 20)))
        r1 = fit(A, k=4, variant="sequential", max_iters=6, seed=9)
        r2 = fit(A, k=4, variant="sequential", max_iters=6, seed=9)
        np.testing.assert_array_equal(r1.W, r2.W)
        np.testing.assert_array_equal(r1.H, r2.H)

    def test_different_seed_changes_result(self):
        A = np.abs(np.random.default_rng(3).standard_normal((25, 20)))
        r1 = fit(A, k=4, variant="sequential", max_iters=3, seed=1)
        r2 = fit(A, k=4, variant="sequential", max_iters=3, seed=2)
        assert not np.allclose(r1.H, r2.H)

    def test_breakdown_contains_computation_categories(self):
        A = np.abs(np.random.default_rng(5).standard_normal((30, 25)))
        res = fit(A, k=3, variant="sequential", max_iters=3)
        assert res.breakdown.get("MM") > 0
        assert res.breakdown.get("NLS") > 0
        assert res.breakdown.get("Gram") > 0
        assert res.breakdown.communication == 0.0


class TestValidation:
    def test_negative_input_rejected(self):
        A = np.ones((10, 10))
        A[0, 0] = -1
        with pytest.raises(NonNegativityError):
            fit(A, k=2, variant="sequential")

    def test_rank_too_large_rejected(self):
        with pytest.raises(ShapeError):
            fit(np.ones((5, 4)), k=5)

    def test_non_2d_rejected(self):
        with pytest.raises(ShapeError):
            fit(np.ones(10), k=2)
