"""Hypothesis property tests for the NLS solvers.

The central invariants:

* BPP returns a nonnegative solution satisfying the KKT conditions (Eq. 6)
  for every well-posed problem;
* BPP matches the Lawson–Hanson oracle (both compute the exact minimizer);
* one MU or HALS sweep never increases the quadratic objective.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import active_set_nnls, check_kkt
from repro.nls import BlockPrincipalPivoting, HALSUpdate, MultiplicativeUpdate


def _problem_strategy(max_k=8, max_c=6):
    """Generate (gram, rhs) pairs with a reasonably conditioned Gram matrix."""

    @st.composite
    def build(draw):
        k = draw(st.integers(1, max_k))
        c = draw(st.integers(1, max_c))
        rows = draw(st.integers(k + 1, 3 * max_k + 2))
        seed = draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        C = rng.standard_normal((rows, k))
        B = rng.standard_normal((rows, c)) * draw(st.floats(0.1, 10.0))
        gram = C.T @ C + 1e-8 * np.eye(k)
        return gram, C.T @ B

    return build()


@given(_problem_strategy())
@settings(max_examples=80, deadline=None)
def test_bpp_satisfies_kkt_and_nonnegativity(problem):
    gram, rhs = problem
    x = BlockPrincipalPivoting().solve(gram, rhs)
    assert x.shape == rhs.shape
    assert np.all(x >= 0)
    assert np.all(np.isfinite(x))
    assert check_kkt(gram, rhs, x, tol=1e-6)


@given(_problem_strategy(max_k=6, max_c=4))
@settings(max_examples=40, deadline=None)
def test_bpp_matches_active_set_oracle(problem):
    gram, rhs = problem
    x_bpp = BlockPrincipalPivoting().solve(gram, rhs)
    x_ref = active_set_nnls(gram, rhs)
    np.testing.assert_allclose(x_bpp, x_ref, atol=1e-6, rtol=1e-6)


@given(_problem_strategy(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_mu_sweep_never_increases_objective(problem, seed):
    # MU's monotonicity guarantee applies to nonnegative data (C, B >= 0),
    # which is the regime in which the ANLS framework uses it.
    gram_raw, rhs_raw = problem
    k, c = rhs_raw.shape
    rng = np.random.default_rng(seed)
    C = rng.random((3 * k + 2, k))
    B = rng.random((3 * k + 2, c))
    gram, rhs = C.T @ C + 1e-10 * np.eye(k), C.T @ B

    def objective(x):
        return 0.5 * np.sum(x * (gram @ x)) - np.sum(rhs * x)

    x0 = np.full(rhs.shape, 0.5)
    x1 = MultiplicativeUpdate().solve(gram, rhs, x0=x0)
    assert np.all(x1 >= 0)
    assert objective(x1) <= objective(x0) + 1e-8


@given(_problem_strategy())
@settings(max_examples=60, deadline=None)
def test_hals_sweep_never_increases_objective(problem):
    gram, rhs = problem

    def objective(x):
        return 0.5 * np.sum(x * (gram @ x)) - np.sum(rhs * x)

    x0 = np.full(rhs.shape, 0.5)
    x1 = HALSUpdate().solve(gram, rhs, x0=x0)
    assert np.all(x1 >= 0)
    assert objective(x1) <= objective(x0) + 1e-8


@given(_problem_strategy(max_k=5, max_c=3), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_bpp_idempotent_from_optimal_warm_start(problem, repeats):
    """Re-solving from the optimal solution must return the same solution."""
    gram, rhs = problem
    solver = BlockPrincipalPivoting()
    x = solver.solve(gram, rhs)
    for _ in range(repeats):
        x_again = solver.solve(gram, rhs, x0=x)
        np.testing.assert_allclose(x_again, x, atol=1e-8)
