"""Tests for Algorithm 2 (Naive) and Algorithm 3 (HPC-NMF) individually."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.api import fit
from repro.core.config import NMFConfig
from repro.core.hpc_nmf import resolve_grid
from repro.data.lowrank import planted_lowrank
from repro.util.errors import CommunicatorError, ShapeError


class TestNaiveParallel:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_runs_and_reduces_error(self, p):
        A = planted_lowrank(36, 28, 3, seed=0, noise_std=0.02)
        res = fit(A, k=3, n_ranks=p, variant="naive", max_iters=8, seed=1)
        assert res.W.shape == (36, 3)
        assert res.n_ranks == p
        history = res.relative_error_history
        assert history[-1] <= history[0]

    def test_breakdown_has_allgather_but_no_reduce_scatter(self):
        A = planted_lowrank(30, 24, 3, seed=1)
        res = fit(A, k=3, n_ranks=3, variant="naive", max_iters=3, seed=1)
        assert res.breakdown.get("AllGather") > 0
        assert res.breakdown.get("ReduceScatter") == 0.0

    def test_ledger_records_two_allgathers_per_iteration(self):
        A = planted_lowrank(30, 24, 3, seed=1)
        iters = 4
        res = fit(
            A, k=3, n_ranks=3, variant="naive", max_iters=iters, seed=1, compute_error=False
        )
        assert res.ledger_summary["all_gather"]["calls"] == 2 * iters

    def test_sparse_input(self):
        A = sp.random(40, 32, density=0.15, random_state=2, format="csr")
        res = fit(A, k=4, n_ranks=4, variant="naive", max_iters=4, seed=3)
        assert np.all(res.W >= 0) and np.all(res.H >= 0)


class TestHPCNMF:
    @pytest.mark.parametrize("p,expected_grid", [(1, (1, 1)), (4, (2, 2)), (6, (3, 2))])
    def test_grid_selection_squarish(self, p, expected_grid):
        A = planted_lowrank(36, 24, 3, seed=0)
        res = fit(A, k=3, n_ranks=p, variant="hpc2d", max_iters=2, seed=1)
        assert res.grid_shape == expected_grid

    def test_1d_variant_uses_1d_grid(self):
        A = planted_lowrank(40, 24, 3, seed=0)
        res = fit(A, k=3, n_ranks=4, variant="hpc1d", max_iters=2, seed=1)
        assert res.grid_shape == (4, 1)

    def test_1d_variant_keeps_an_explicit_grid(self):
        # hpc1d is hpc2d with a different *default* grid, nothing more.
        A = planted_lowrank(40, 24, 3, seed=0)
        kwargs = dict(k=3, n_ranks=4, grid=(2, 2), max_iters=2, seed=1)
        res = fit(A, variant="hpc1d", **kwargs)
        assert res.grid_shape == (2, 2) and res.variant == "hpc1d"
        assert res.W.tobytes() == fit(A, variant="hpc2d", **kwargs).W.tobytes()

    def test_explicit_grid_respected(self):
        A = planted_lowrank(36, 24, 3, seed=0)
        res = fit(A, k=3, n_ranks=4, variant="hpc2d", grid=(1, 4), max_iters=2, seed=1)
        assert res.grid_shape == (1, 4)

    def test_mismatched_grid_rejected(self):
        A = planted_lowrank(36, 24, 3, seed=0)
        with pytest.raises(CommunicatorError):
            fit(A, k=3, n_ranks=4, variant="hpc2d", grid=(3, 2), max_iters=2)

    @pytest.mark.parametrize("p", [1, 2, 4, 6, 9])
    def test_error_decreases_on_2d_grids(self, p):
        A = planted_lowrank(45, 36, 4, seed=2, noise_std=0.02)
        res = fit(A, k=4, n_ranks=p, variant="hpc2d", max_iters=8, seed=4)
        history = res.relative_error_history
        assert history[-1] <= history[0]
        assert all(b <= a + 1e-8 for a, b in zip(history, history[1:]))

    def test_breakdown_contains_all_six_categories(self):
        A = planted_lowrank(48, 36, 3, seed=3)
        res = fit(A, k=3, n_ranks=4, variant="hpc2d", max_iters=3, seed=1)
        for category in ("MM", "NLS", "Gram", "AllGather", "ReduceScatter", "AllReduce"):
            assert res.breakdown.get(category) > 0, category

    def test_ledger_collective_counts_per_iteration(self):
        A = planted_lowrank(48, 36, 3, seed=3)
        iters = 5
        res = fit(
            A, k=3, n_ranks=4, variant="hpc2d", max_iters=iters, seed=1, compute_error=False
        )
        # Per iteration: 2 all-reduces (world), 2 all-gathers (row/col), 2 reduce-scatters.
        assert res.ledger_summary["all_reduce"]["calls"] == 2 * iters
        assert res.ledger_summary["all_gather"]["calls"] == 2 * iters
        assert res.ledger_summary["reduce_scatter"]["calls"] == 2 * iters

    def test_sparse_input_2d_grid(self):
        A = sp.random(60, 48, density=0.1, random_state=5, format="csr")
        res = fit(A, k=4, n_ranks=6, variant="hpc2d", max_iters=4, seed=3)
        assert np.all(res.W >= 0) and np.all(res.H >= 0)
        assert res.relative_error <= 1.0

    @pytest.mark.parametrize("solver", ["bpp", "mu", "hals"])
    def test_alternative_solvers_plug_in(self, solver):
        A = planted_lowrank(40, 32, 3, seed=6, noise_std=0.01)
        res = fit(
            A, k=3, n_ranks=4, variant="hpc2d", solver=solver, max_iters=6, seed=2
        )
        history = res.relative_error_history
        assert history[-1] <= history[0]

    def test_tall_skinny_matrix_gets_1d_grid_automatically(self):
        # m/p > n triggers the paper's 1D rule inside choose_grid.
        A = planted_lowrank(400, 6, 2, seed=7)
        res = fit(A, k=2, n_ranks=4, variant="hpc2d", max_iters=2, seed=1)
        assert res.grid_shape == (4, 1)


class TestResolveGrid:
    def test_explicit_grid_must_match_p(self):
        cfg = NMFConfig(k=3, grid=(2, 3))
        assert resolve_grid(cfg, 100, 100, 6) == (2, 3)
        with pytest.raises(CommunicatorError):
            resolve_grid(cfg, 100, 100, 4)

    def test_hpc1d_forces_1d(self):
        # The variant, not the rank program, knows its default grid: hpc1d
        # hands resolve_grid the explicit (p, 1).
        A = planted_lowrank(40, 40, 3, seed=0)
        res = fit(A, k=3, n_ranks=8, variant="hpc1d", backend="lockstep", max_iters=1)
        assert res.grid_shape == (8, 1) and res.config.grid == (8, 1)

    def test_hpc2d_uses_selection_rule(self):
        assert resolve_grid(NMFConfig(k=3), 90, 90, 9) == (3, 3)


class TestAPIValidation:
    def test_invalid_n_ranks(self):
        with pytest.raises(ShapeError):
            fit(np.ones((10, 8)), k=2, n_ranks=0)
