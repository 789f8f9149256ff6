"""Tests for regularized NMF: Algorithm 3 with a normal-equations hook, at any p."""

import numpy as np
import pytest

from repro.core.api import fit
from repro.core.config import NMFConfig
from repro.core.objective import relative_error
from repro.core.regularized import Regularization
from repro.data.lowrank import planted_lowrank
from repro.util.errors import ShapeError


class TestRegularization:
    def test_negative_weights_rejected(self):
        with pytest.raises(ShapeError):
            Regularization(frobenius=-1.0)
        with pytest.raises(ShapeError):
            Regularization(l1=-0.1)

    def test_is_active(self):
        assert not Regularization().is_active
        assert Regularization(frobenius=0.1).is_active
        assert Regularization(l1=0.1).is_active

    def test_gram_rhs_modification(self):
        gram = np.eye(3)
        rhs = np.ones((3, 2))
        partner = np.full((3, 2), 7.0)  # ridge/L1 never read the other factor
        g, r = Regularization(frobenius=2.0, l1=1.0).normal_equations(gram, rhs, partner)
        np.testing.assert_array_equal(g, 3.0 * np.eye(3))
        np.testing.assert_array_equal(r, np.full((3, 2), 0.5))
        # Inactive regularization returns the inputs untouched.
        g2, r2 = Regularization().normal_equations(gram, rhs, partner)
        assert g2 is gram and r2 is rhs


class TestRegularizedNMF:
    def test_zero_weights_match_plain_anls(self):
        A = planted_lowrank(30, 24, 3, seed=0, noise_std=0.02)
        cfg = NMFConfig(k=3, max_iters=6, seed=5)
        plain = fit(A, config=cfg, variant="sequential")
        reg = fit(A, config=cfg, variant="regularized", regularization=Regularization())
        assert reg.W.tobytes() == plain.W.tobytes()
        assert reg.H.tobytes() == plain.H.tobytes()
        assert reg.relative_error_history == plain.relative_error_history
        assert reg.objective_history == plain.objective_history

    def test_l1_increases_factor_sparsity(self):
        A = planted_lowrank(60, 45, 5, seed=1, noise_std=0.05)
        cfg = NMFConfig(k=5, max_iters=15, seed=2)
        plain = fit(A, config=cfg, variant="regularized", regularization=Regularization())
        sparse = fit(A, config=cfg, variant="regularized",
                     regularization=Regularization(l1=0.5))
        zero_frac_plain = np.mean(plain.H < 1e-10) + np.mean(plain.W < 1e-10)
        zero_frac_sparse = np.mean(sparse.H < 1e-10) + np.mean(sparse.W < 1e-10)
        assert zero_frac_sparse > zero_frac_plain

    def test_frobenius_shrinks_factor_norms(self):
        A = planted_lowrank(40, 30, 4, seed=3, noise_std=0.05)
        cfg = NMFConfig(k=4, max_iters=12, seed=4)
        plain = fit(A, config=cfg, variant="regularized", regularization=Regularization())
        ridge = fit(A, config=cfg, variant="regularized",
                    regularization=Regularization(frobenius=5.0))
        assert (np.linalg.norm(ridge.W) + np.linalg.norm(ridge.H)) < (
            np.linalg.norm(plain.W) + np.linalg.norm(plain.H)
        )

    def test_penalized_objective_monotone(self):
        A = planted_lowrank(40, 30, 3, seed=5, noise_std=0.05)
        cfg = NMFConfig(k=3, max_iters=12, seed=6)
        res = fit(A, config=cfg, variant="regularized",
                  regularization=Regularization(frobenius=0.5, l1=0.1))
        objectives = res.objective_history
        assert all(b <= a + 1e-6 * abs(a) for a, b in zip(objectives, objectives[1:]))

    def test_factors_nonnegative(self):
        A = planted_lowrank(30, 20, 3, seed=7)
        res = fit(A, config=NMFConfig(k=3, max_iters=5), variant="regularized",
                  regularization=Regularization(l1=1.0))
        assert np.all(res.W >= 0) and np.all(res.H >= 0)

    @pytest.mark.parametrize("weights", [{"l1": 2.0}, {"frobenius": 5.0}])
    def test_relative_error_is_unpenalized(self, weights):
        """relative_error is ‖A − WH‖/‖A‖ of the returned factors; the
        penalty goes into objective only."""
        A = np.abs(np.random.default_rng(0).standard_normal((40, 30)))
        res = fit(A, 4, variant="regularized", **weights)
        W, H = res.W, res.H
        assert res.relative_error == pytest.approx(relative_error(A, W, H), abs=1e-12)
        reg = Regularization(**weights)
        penalty = reg.frobenius * (np.vdot(W, W) + np.vdot(H, H)) + reg.l1 * (W.sum() + H.sum())
        residual = np.linalg.norm(A - W @ H) ** 2
        assert res.objective == pytest.approx(residual + penalty, rel=1e-9)


class TestRegularizedParallel:
    """The same loop on p ranks: the hook acts on the replicated Gram and the
    locally owned right-hand side, so it needs no communication of its own."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_two_ranks_match_one(self, backend):
        A = planted_lowrank(40, 30, 4, seed=3, noise_std=0.05)
        options = dict(variant="regularized", frobenius=0.5, l1=0.2, max_iters=8, seed=4)
        seq = fit(A, 4, **options)
        par = fit(A, 4, n_ranks=2, backend=backend, **options)
        assert par.variant == "regularized" and par.n_ranks == 2 and par.backend == backend
        np.testing.assert_allclose(par.W, seq.W, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(par.H, seq.H, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(par.relative_error_history, seq.relative_error_history,
                                   rtol=1e-9)
        np.testing.assert_allclose(par.objective_history, seq.objective_history, rtol=1e-9)

    @pytest.mark.parametrize("weights", [{"frobenius": 1.0}, {"l1": 0.5}])
    def test_ledger_is_hpc2ds(self, weights):
        """Ridge moves exactly hpc2d's words.  L1's entry sums ride along the
        cross-term all-reduce: the same calls and messages, one more word per
        iteration (2 (p − 1)/p · 1 at p = 2)."""
        A = planted_lowrank(40, 30, 4, seed=3, noise_std=0.05)
        iters = 6
        plain = fit(A, 4, variant="hpc2d", n_ranks=2, max_iters=iters, seed=4).ledger_summary
        reg = fit(A, 4, variant="regularized", n_ranks=2, max_iters=iters, seed=4,
                  **weights).ledger_summary
        extra = iters if weights.get("l1") else 0
        assert reg.keys() == plain.keys()
        for op, entry in plain.items():
            expected = dict(entry)
            if op == "all_reduce":
                expected["words"] += extra
                expected["reduction_flops"] += extra / 2
            assert reg[op] == expected, op
