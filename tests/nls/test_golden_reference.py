"""Golden-reference NLS harness: every kernel/solver vs an exhaustive oracle.

``golden_nnls`` below is deliberately the *slowest obviously-correct* solver
one can write for ``min_{x >= 0} 1/2 xᵀGx - rᵀx``: it enumerates **every**
passive subset F of the k variables, solves the unconstrained subproblem on F
with ``lstsq``, and keeps the KKT-feasible candidate with the lowest
objective.  For a convex problem the optimum's passive set is among the 2^k
subsets, so this search cannot miss it — there is no pivoting logic to get
wrong, which is the whole point of a golden reference.

Solutions need not be unique when the Gram matrix is rank-deficient, so the
harness compares *objectives* (which are unique at the optimum) and checks
the KKT residual of each kernel's own solution, rather than comparing
iterates elementwise.  Hypothesis drives the problem generator through dense,
sparse, rank-deficient, and all-zero-column regimes; problems are built from
an explicit ``(C, B)`` pair so a zero column in C produces the matching zero
Gram row/column *and* zero RHS row (the degenerate case an NMF iteration
actually produces when a factor column dies).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nls import available_kernels, make_solver
from repro.nls.bpp import BlockPrincipalPivoting

MODES = ("dense", "sparse", "rank_deficient", "zero_column")


def _build_problem(mode, k, c, rows, seed):
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((rows, k))
    if mode == "sparse":
        C *= rng.random(C.shape) < 0.5  # sparse-ish factor -> sparse Gram
    elif mode == "rank_deficient" and k >= 2:
        C[:, -1] = C[:, 0]  # duplicate column -> exactly singular Gram
    elif mode == "zero_column":
        C[:, rng.integers(k)] = 0.0  # dead factor column
    B = rng.standard_normal((rows, c))
    return C.T @ C, C.T @ B


def _objective(gram, r, x):
    return 0.5 * x @ gram @ x - r @ x


def _kkt_residual(gram, rhs, X, scale):
    """max violation of Eq. 6: x >= 0, y = Gx - r >= 0, x·y = 0 (elementwise)."""
    Y = gram @ X - rhs
    return max(
        float(np.max(-X, initial=0.0)),
        float(np.max(-Y, initial=0.0)) / scale,
        float(np.max(np.abs(X * Y), initial=0.0)) / scale,
    )


def golden_nnls(gram, rhs, tol=1e-8):
    """Exhaustive-enumeration NNLS: provably optimal for k small enough."""
    k, c = rhs.shape
    scale = max(np.abs(gram).max(), np.abs(rhs).max(), 1.0)
    X = np.zeros_like(rhs, dtype=float)
    for j in range(c):
        r = rhs[:, j]
        best = None
        for mask in range(2**k):
            idx = np.flatnonzero([(mask >> i) & 1 for i in range(k)])
            x = np.zeros(k)
            if idx.size:
                sub = gram[np.ix_(idx, idx)]
                sol, *_ = np.linalg.lstsq(sub, r[idx], rcond=None)
                # The optimum's passive system is consistent; if lstsq only
                # found a least-squares (not exact) solution this subset is
                # not the optimal support and the KKT check below rejects it.
                x[idx] = sol
            if np.min(x, initial=0.0) < -tol * scale:
                continue
            x = np.maximum(x, 0.0)
            y = gram @ x - r
            if np.min(y, initial=0.0) < -tol * scale:
                continue
            if np.max(np.abs(x * y), initial=0.0) > np.sqrt(tol) * scale**2:
                continue
            obj = _objective(gram, r, x)
            if best is None or obj < best[0]:
                best = (obj, x)
        assert best is not None, "no KKT point found -- golden solver bug"
        X[:, j] = best[1]
    return X


@st.composite
def _nls_problems(draw, max_k=5, max_c=4):
    mode = draw(st.sampled_from(MODES))
    k = draw(st.integers(1, max_k))
    c = draw(st.integers(1, max_c))
    rows = draw(st.integers(k + 1, 3 * max_k))
    seed = draw(st.integers(0, 2**31 - 1))
    return _build_problem(mode, k, c, rows, seed)


class TestGoldenSolverItself:
    """The oracle must be right before anything is graded against it."""

    def test_identity_gram_is_positive_part(self):
        rhs = np.array([[1.0, -2.0], [-3.0, 4.0]])
        np.testing.assert_allclose(golden_nnls(np.eye(2), rhs),
                                   np.maximum(rhs, 0.0))

    def test_matches_scipy_nnls(self):
        from scipy.optimize import nnls as scipy_nnls

        rng = np.random.default_rng(7)
        for _ in range(8):
            C = rng.standard_normal((12, 4))
            b = rng.standard_normal(12)
            x_gold = golden_nnls(C.T @ C, (C.T @ b)[:, None])[:, 0]
            x_scipy, _ = scipy_nnls(C, b)
            np.testing.assert_allclose(x_gold, x_scipy, atol=1e-7)

    def test_handles_zero_gram(self):
        X = golden_nnls(np.zeros((3, 3)), np.zeros((3, 2)))
        np.testing.assert_array_equal(X, np.zeros((3, 2)))


@pytest.mark.parametrize("kernel", available_kernels())
class TestKernelsVsGolden:
    """Every registered BPP kernel must reproduce the golden optimum."""

    # One @given method serves every kernel-parametrized instance of the
    # class; hypothesis flags that as differing executors once its example
    # database is warm, although the test reads nothing from ``self``.
    @given(problem=_nls_problems())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    def test_matches_golden(self, kernel, problem):
        gram, rhs = problem
        scale = max(np.abs(gram).max(), np.abs(rhs).max(), 1.0)
        gold = golden_nnls(gram, rhs)
        x = BlockPrincipalPivoting(kernel=kernel).solve(gram, rhs)
        assert x.shape == rhs.shape
        assert np.all(x >= 0)
        assert np.all(np.isfinite(x))
        assert _kkt_residual(gram, rhs, x, scale) < 1e-6
        for j in range(rhs.shape[1]):
            got = _objective(gram, rhs[:, j], x[:, j])
            want = _objective(gram, rhs[:, j], gold[:, j])
            assert got <= want + 1e-6 * scale**2

    @pytest.mark.parametrize("mode", MODES)
    def test_each_regime_deterministically(self, kernel, mode):
        # Fixed-seed smoke of every regime, so a failure names the regime
        # directly instead of needing hypothesis shrinking output.
        gram, rhs = _build_problem(mode, k=4, c=3, rows=9, seed=20)
        scale = max(np.abs(gram).max(), np.abs(rhs).max(), 1.0)
        gold = golden_nnls(gram, rhs)
        x = BlockPrincipalPivoting(kernel=kernel).solve(gram, rhs)
        assert _kkt_residual(gram, rhs, x, scale) < 1e-6
        for j in range(rhs.shape[1]):
            assert _objective(gram, rhs[:, j], x[:, j]) <= (
                _objective(gram, rhs[:, j], gold[:, j]) + 1e-6 * scale**2
            )


class TestIterativeSolversVsGolden:
    """The inexact solvers must *approach* the golden objective.

    MU/HALS/PGD/ADMM are descent methods, not exact pivoting solvers, so the
    contract is a loose objective gap after enough inner sweeps — plus the
    hard invariants (nonnegativity, finiteness) that hold at any accuracy.
    """

    @pytest.mark.parametrize("solver_name", ["mu", "hals", "pgrad", "admm"])
    def test_objective_gap_is_small(self, solver_name):
        rng = np.random.default_rng(11)
        C = rng.random((20, 4)) + 0.05
        B = rng.random((20, 3))
        gram, rhs = C.T @ C, C.T @ B
        gold = golden_nnls(gram, rhs)
        kwargs = {"inner_iters": 400} if solver_name in ("mu", "hals") else {}
        solver = make_solver(solver_name, **kwargs)
        x = solver.solve(gram, rhs)
        assert np.all(x >= 0) and np.all(np.isfinite(x))
        gap = sum(
            _objective(gram, rhs[:, j], x[:, j])
            - _objective(gram, rhs[:, j], gold[:, j])
            for j in range(rhs.shape[1])
        )
        gold_norm = abs(sum(_objective(gram, rhs[:, j], gold[:, j])
                            for j in range(rhs.shape[1])))
        assert gap >= -1e-8 * max(gold_norm, 1.0)  # golden is optimal
        assert gap <= 0.05 * max(gold_norm, 1.0)
