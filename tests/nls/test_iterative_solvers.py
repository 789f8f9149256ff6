"""Tests for the MU and HALS solvers and the solver registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fit
from repro.core.regularized import Regularization
from repro.nls import (
    HALSUpdate,
    MultiplicativeUpdate,
    available_solvers,
    make_solver,
)


def quadratic_objective(gram, rhs, x):
    """½⟨x, G x⟩ − ⟨r, x⟩ (the NLS objective up to a constant)."""
    return 0.5 * np.sum(x * (gram @ x)) - np.sum(rhs * x)


def hals_reference(gram, rhs, x0, inner_iters):
    """Unblocked HALS, every row update over all columns at once (Eq. 4)."""
    k, c = rhs.shape
    x = np.full((k, c), 0.5) if x0 is None else np.maximum(x0, 0.0)
    for _ in range(inner_iters):
        for i in range(k):
            if gram[i, i] <= 1e-16:
                x[i, rhs[i, :] < 0] = 0.0  # else a dead row keeps its value
                continue
            x[i, :] = np.maximum(x[i, :] + (rhs[i, :] - gram[i, :] @ x) / gram[i, i], 0.0)
    return x


def make_problem(k, c, seed):
    rng = np.random.default_rng(seed)
    C = rng.random((5 * k, k)) + 0.01
    B = rng.random((5 * k, c))
    return C.T @ C, C.T @ B


class TestMultiplicativeUpdate:
    @pytest.mark.parametrize("seed", range(4))
    def test_objective_never_increases(self, seed):
        gram, rhs = make_problem(6, 8, seed)
        solver = MultiplicativeUpdate(inner_iters=1)
        x = np.full(rhs.shape, 0.5)
        prev = quadratic_objective(gram, rhs, x)
        for _ in range(25):
            x = solver.solve(gram, rhs, x0=x)
            current = quadratic_objective(gram, rhs, x)
            assert current <= prev + 1e-9
            prev = current

    def test_result_nonnegative_and_finite(self):
        gram, rhs = make_problem(5, 6, 11)
        x = MultiplicativeUpdate(inner_iters=5).solve(gram, rhs)
        assert np.all(x >= 0)
        assert np.all(np.isfinite(x))

    def test_zero_start_is_replaced_by_positive_constant(self):
        gram, rhs = make_problem(4, 3, 2)
        x = MultiplicativeUpdate().solve(gram, rhs, x0=None)
        assert np.all(x >= 0)

    def test_inner_iters_validation(self):
        with pytest.raises(ValueError):
            MultiplicativeUpdate(inner_iters=0)


class TestHALS:
    @pytest.mark.parametrize("seed", range(4))
    def test_objective_never_increases(self, seed):
        gram, rhs = make_problem(6, 8, 50 + seed)
        solver = HALSUpdate(inner_iters=1)
        x = np.full(rhs.shape, 0.5)
        prev = quadratic_objective(gram, rhs, x)
        for _ in range(25):
            x = solver.solve(gram, rhs, x0=x)
            current = quadratic_objective(gram, rhs, x)
            assert current <= prev + 1e-9
            prev = current

    def test_approaches_bpp_solution_with_many_sweeps(self):
        gram, rhs = make_problem(5, 4, 3)
        from repro.nls import BlockPrincipalPivoting

        exact = BlockPrincipalPivoting().solve(gram, rhs)
        approx = HALSUpdate(inner_iters=500).solve(gram, rhs, x0=np.full(rhs.shape, 0.5))
        assert quadratic_objective(gram, rhs, approx) <= quadratic_objective(gram, rhs, exact) + 1e-4

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 48),
        c=st.one_of(st.integers(1, 64), st.integers(4000, 4200), st.integers(1, 20000)),
        inner_iters=st.sampled_from([1, 3]),
        dead=st.lists(st.integers(0, 47), max_size=3),
        warm=st.booleans(),
        strided=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_column_blocking_changes_no_bit(self, k, c, inner_iters, dead, warm, strided, seed):
        """The cache-blocked sweep equals the unblocked one exactly — across the
        4096-column block edge, with dead rows (``gram[i, i] <= EPS``), several
        inner sweeps, cold and warm starts and a non-contiguous ``rhs``.  If a
        shape ever differs on some BLAS, the blocking goes; no tolerance."""
        rng = np.random.default_rng(seed)
        F = rng.random((k, 2 * k + 1))
        gram = F @ F.T
        for i in dead:
            if i < k:
                gram[i, :] = gram[:, i] = 0.0
        if strided:
            rhs = rng.standard_normal((c, k)).T       # Fortran-ordered view
            x0 = rng.random((k, 2 * c))[:, ::2] if warm else None
        else:
            rhs = rng.standard_normal((k, c))
            x0 = rng.random((k, c)) - 0.1 if warm else None
        expected = hals_reference(gram, rhs, x0, inner_iters)
        got = HALSUpdate(inner_iters=inner_iters).solve(gram, rhs, x0=x0)
        assert got.flags.c_contiguous
        assert np.array_equal(got, expected)

    def test_warm_start_is_not_modified(self):
        gram, rhs = make_problem(4, 9, seed=2)
        x0 = np.random.default_rng(0).random((4, 9)) - 0.3
        before = x0.copy()
        HALSUpdate().solve(gram, rhs, x0=x0)
        np.testing.assert_array_equal(x0, before)

    def test_zero_diagonal_row_keeps_its_value(self):
        # The objective is flat in a row whose Gram diagonal vanishes: the
        # row keeps its (clamped) start, warm or cold.
        gram = np.diag([1.0, 0.0, 2.0])
        rhs = np.ones((3, 2))
        x0 = np.array([[1.0, 1.0], [0.25, -3.0], [1.0, 1.0]])
        x = HALSUpdate().solve(gram, rhs, x0=x0)
        np.testing.assert_array_equal(x[1], [0.25, 0.0])
        np.testing.assert_array_equal(HALSUpdate().solve(gram, rhs)[1], [0.5, 0.5])

    def test_a_dead_row_under_an_l1_penalty_goes_to_zero(self):
        """With G[i, i] = 0 the row's objective is ``-R[i] x``: L1 makes R[i]
        negative, so 0 is its only minimizer, while the unpenalized dead row
        (R[i] = 0, flat) keeps its value."""
        rng = np.random.default_rng(22)
        A = rng.random((30, 20))
        W = rng.random((30, 3))
        W[:, 1] = 0.0
        H = rng.random((3, 20))
        plain = HALSUpdate().solve(W.T @ W, W.T @ A, x0=H)
        np.testing.assert_array_equal(plain[1], H[1])
        gram, rhs = Regularization(l1=0.1).normal_equations(W.T @ W, W.T @ A, None)
        penalized = HALSUpdate().solve(gram, rhs, x0=H)
        np.testing.assert_array_equal(penalized[1], np.zeros(20))
        assert penalized[[0, 2]].max() > 0

    def test_a_dead_component_revives(self):
        """A zero column of W leaves H's row as it is, so the next W update
        sees a nonzero ``H Hᵀ`` diagonal and brings the column back."""
        rng = np.random.default_rng(21)
        A = rng.random((30, 20))
        W = rng.random((30, 3))
        W[:, 1] = 0.0
        H = rng.random((3, 20))
        solver = HALSUpdate()
        H_next = solver.solve(W.T @ W, W.T @ A, x0=H)
        np.testing.assert_array_equal(H_next[1], H[1])
        W_next = solver.solve(H_next @ H_next.T, H_next @ A.T, x0=W.T).T
        assert W_next[:, 1].max() > 0

    def test_inner_iters_validation(self):
        with pytest.raises(ValueError):
            HALSUpdate(inner_iters=-1)


class TestRegistry:
    def test_available_solvers_are_the_papers_three(self):
        assert available_solvers() == ["bpp", "hals", "mu"]

    def test_make_solver_by_name(self):
        assert make_solver("bpp").name == "bpp"
        assert make_solver("MU").name == "mu"
        assert make_solver("hals", inner_iters=3).inner_iters == 3

    def test_unknown_solver_raises(self):
        with pytest.raises(KeyError):
            make_solver("simplex")

    @pytest.mark.parametrize("name", ["admm", "pgrad"])
    def test_a_deleted_solver_is_an_unknown_name_that_lists_the_registry(self, name):
        message = r"unknown NLS solver '%s'; available: \['bpp', 'hals', 'mu'\]" % name
        with pytest.raises(KeyError, match=message):
            make_solver(name)
        with pytest.raises(KeyError, match=message):
            fit(np.ones((6, 5)), 2, solver=name, max_iters=1)
