"""Tests for the ADMM NLS solver."""

import numpy as np
import pytest

from repro.nls import ADMMSolver, BlockPrincipalPivoting, check_kkt, make_solver


def make_problem(k, c, seed):
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((4 * k, k))
    B = rng.standard_normal((4 * k, c))
    return C.T @ C + 1e-8 * np.eye(k), C.T @ B


class TestADMM:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bpp_solution(self, seed):
        gram, rhs = make_problem(6, 8, seed)
        exact = BlockPrincipalPivoting().solve(gram, rhs)
        admm = ADMMSolver(max_iters=2000, tol=1e-10).solve(gram, rhs)
        np.testing.assert_allclose(admm, exact, atol=1e-5, rtol=1e-4)

    def test_solution_is_feasible_and_near_kkt(self):
        gram, rhs = make_problem(8, 10, 42)
        x = ADMMSolver(max_iters=3000, tol=1e-10).solve(gram, rhs)
        assert np.all(x >= 0)
        assert check_kkt(gram, rhs, x, tol=1e-3)

    def test_warm_start_converges_faster(self):
        gram, rhs = make_problem(7, 9, 3)
        solver = ADMMSolver(max_iters=5000, tol=1e-10)
        cold = solver.solve(gram, rhs)
        cold_iters = solver.last_state.iterations
        solver.solve(gram, rhs, x0=cold)
        warm_iters = solver.last_state.iterations
        assert warm_iters <= cold_iters

    def test_explicit_rho_respected(self):
        gram, rhs = make_problem(5, 4, 1)
        x = ADMMSolver(rho=10.0, max_iters=2000, tol=1e-10).solve(gram, rhs)
        assert np.all(x >= 0)

    def test_registered_in_factory(self):
        from repro.nls import available_solvers

        assert "admm" in available_solvers()
        assert make_solver("admm").name == "admm"

    def test_plugs_into_nmf(self):
        from repro.core.api import fit
        from repro.data.lowrank import planted_lowrank

        A = planted_lowrank(30, 24, 3, seed=5, noise_std=0.02)
        res = fit(A, k=3, variant="sequential", max_iters=8, solver="admm", seed=1)
        history = res.relative_error_history
        assert history[-1] <= history[0]
        assert np.all(res.W >= 0) and np.all(res.H >= 0)
