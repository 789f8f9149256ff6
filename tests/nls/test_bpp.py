"""Unit tests for the Block Principal Pivoting solver."""

import numpy as np
import pytest

from oracles import active_set_nnls, check_kkt, kkt_residual
from repro.nls import BlockPrincipalPivoting
from repro.util.errors import ShapeError


def make_problem(k, c, seed, cond=1.0):
    """Random NLS problem in normal-equations form with a well-conditioned Gram."""
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((4 * k, k)) * cond
    B = rng.standard_normal((4 * k, c))
    return C.T @ C, C.T @ B


class TestBPPCorrectness:
    @pytest.mark.parametrize("seed", range(8))
    def test_solution_satisfies_kkt(self, seed):
        gram, rhs = make_problem(k=8, c=12, seed=seed)
        x = BlockPrincipalPivoting().solve(gram, rhs)
        assert np.all(x >= 0)
        assert check_kkt(gram, rhs, x, tol=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_lawson_hanson_oracle(self, seed):
        gram, rhs = make_problem(k=6, c=7, seed=100 + seed)
        x_bpp = BlockPrincipalPivoting().solve(gram, rhs)
        x_ref = active_set_nnls(gram, rhs)
        np.testing.assert_allclose(x_bpp, x_ref, atol=1e-8)

    def test_unconstrained_optimum_recovered_when_nonnegative(self):
        # If the unconstrained LS solution is already nonnegative it is the answer.
        rng = np.random.default_rng(0)
        C = rng.random((30, 5)) + 0.1
        x_true = rng.random((5, 4)) + 0.05
        B = C @ x_true
        gram, rhs = C.T @ C, C.T @ B
        x = BlockPrincipalPivoting().solve(gram, rhs)
        np.testing.assert_allclose(x, x_true, atol=1e-8)

    def test_zero_rhs_gives_zero_solution(self):
        gram, _ = make_problem(5, 3, 0)
        x = BlockPrincipalPivoting().solve(gram, np.zeros((5, 3)))
        np.testing.assert_array_equal(x, np.zeros((5, 3)))

    def test_negative_rhs_gives_zero_solution(self):
        # If Cᵀb is entirely nonpositive, x = 0 satisfies the KKT conditions.
        gram, rhs = make_problem(5, 3, 1)
        x = BlockPrincipalPivoting().solve(gram, -np.abs(rhs))
        np.testing.assert_array_equal(x, np.zeros((5, 3)))

    def test_single_column_vector_rhs(self):
        gram, rhs = make_problem(4, 1, 3)
        x = BlockPrincipalPivoting().solve(gram, rhs[:, 0])
        assert x.shape == (4, 1)
        assert check_kkt(gram, rhs[:, 0], x, tol=1e-8)

    def test_warm_start_gives_same_solution(self):
        gram, rhs = make_problem(7, 9, 4)
        solver = BlockPrincipalPivoting()
        cold = solver.solve(gram, rhs)
        warm = solver.solve(gram, rhs, x0=cold)
        np.testing.assert_allclose(cold, warm, atol=1e-10)

    def test_near_singular_gram_still_feasible(self):
        rng = np.random.default_rng(5)
        C = rng.random((20, 6))
        C[:, 5] = C[:, 4]  # exactly collinear columns
        B = rng.random((20, 3))
        gram, rhs = C.T @ C, C.T @ B
        x = BlockPrincipalPivoting().solve(gram, rhs)
        assert np.all(x >= 0)
        assert np.all(np.isfinite(x))
        # Objective should still be near the oracle's.
        x_ref = active_set_nnls(gram, rhs)

        def objective(x):
            return np.sum(x * (gram @ x)) - 2 * np.sum(rhs * x)

        assert objective(x) <= objective(x_ref) + 1e-6


class TestBPPDiagnostics:
    def test_state_reports_iterations(self):
        gram, rhs = make_problem(6, 10, 7)
        solver = BlockPrincipalPivoting()
        solver.solve(gram, rhs)
        assert solver.last_state is not None
        assert solver.last_state.converged
        assert solver.last_state.iterations >= 1

    def test_shape_validation(self):
        solver = BlockPrincipalPivoting()
        with pytest.raises(ShapeError):
            solver.solve(np.zeros((3, 2)), np.zeros((3, 1)))
        with pytest.raises(ShapeError):
            solver.solve(np.eye(3), np.zeros((4, 1)))
        with pytest.raises(ShapeError):
            solver.solve(np.eye(3), np.zeros((3, 2)), x0=np.zeros((3, 3)))

    def test_kkt_residual_detects_bad_point(self):
        gram, rhs = make_problem(5, 2, 9)
        bad = np.full((5, 2), 10.0)
        assert kkt_residual(gram, rhs, bad) > 1.0
