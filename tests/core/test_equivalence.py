"""Integration tests: the parallel algorithms must match the sequential reference.

The paper's §6.1.3 initialisation protocol (same seed for H across algorithms)
guarantees that all variants perform the same computations up to roundoff; we
assert exactly that, which is the strongest correctness statement available
for the parallel implementations.  At p = 1 they are one program (Algorithm 1
is Algorithm 3 on a 1 × 1 grid), so there the factors are equal bit for bit.
"""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.api import fit
from repro.data.lowrank import planted_lowrank
from repro.data.synthetic import dense_synthetic, sparse_synthetic


@pytest.fixture(scope="module")
def dense_A():
    return dense_synthetic(48, 36, seed=0)


@pytest.fixture(scope="module")
def sparse_A():
    return sparse_synthetic(64, 48, density=0.2, seed=1)


def _digest(result) -> str:
    """sha256 of ``W‖H``: the factors' exact bits."""
    return hashlib.sha256(result.W.tobytes() + result.H.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def sequential_dense(dense_A):
    return fit(dense_A, k=4, variant="sequential", max_iters=6, seed=7)


@pytest.fixture(scope="module")
def sequential_sparse(sparse_A):
    return fit(sparse_A, k=4, variant="sequential", max_iters=6, seed=7)


class TestDenseEquivalence:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 6])
    def test_naive_matches_sequential(self, dense_A, sequential_dense, p):
        res = fit(dense_A, k=4, n_ranks=p, variant="naive", max_iters=6, seed=7)
        if p == 1:
            assert _digest(res) == _digest(sequential_dense)
        np.testing.assert_allclose(res.W, sequential_dense.W, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(res.H, sequential_dense.H, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("p", [1, 2, 4, 6, 9])
    def test_hpc2d_matches_sequential(self, dense_A, sequential_dense, p):
        res = fit(dense_A, k=4, n_ranks=p, variant="hpc2d", max_iters=6, seed=7)
        if p == 1:
            assert _digest(res) == _digest(sequential_dense)
        np.testing.assert_allclose(res.W, sequential_dense.W, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(res.H, sequential_dense.H, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("p", [2, 4])
    def test_hpc1d_matches_sequential(self, dense_A, sequential_dense, p):
        res = fit(dense_A, k=4, n_ranks=p, variant="hpc1d", max_iters=6, seed=7)
        np.testing.assert_allclose(res.W, sequential_dense.W, rtol=1e-5, atol=1e-7)

    def test_final_error_identical_across_variants(self, dense_A, sequential_dense):
        naive = fit(dense_A, k=4, n_ranks=4, variant="naive", max_iters=6, seed=7)
        hpc = fit(dense_A, k=4, n_ranks=4, variant="hpc2d", max_iters=6, seed=7)
        assert naive.relative_error == pytest.approx(sequential_dense.relative_error, rel=1e-6)
        assert hpc.relative_error == pytest.approx(sequential_dense.relative_error, rel=1e-6)


class TestSparseEquivalence:
    @pytest.mark.parametrize("p", [2, 4])
    def test_naive_matches_sequential(self, sparse_A, sequential_sparse, p):
        res = fit(sparse_A, k=4, n_ranks=p, variant="naive", max_iters=6, seed=7)
        np.testing.assert_allclose(res.W, sequential_sparse.W, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_hpc2d_matches_sequential(self, sparse_A, sequential_sparse, p):
        res = fit(sparse_A, k=4, n_ranks=p, variant="hpc2d", max_iters=6, seed=7)
        np.testing.assert_allclose(res.W, sequential_sparse.W, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(res.H, sequential_sparse.H, rtol=1e-5, atol=1e-7)


class TestSolverEquivalence:
    @pytest.mark.parametrize("solver", ["mu", "hals"])
    def test_iterative_solvers_also_match(self, solver):
        A = planted_lowrank(40, 30, 3, seed=9, noise_std=0.01)
        seq = fit(A, k=3, variant="sequential", max_iters=5, solver=solver, seed=11)
        par = fit(A, k=3, n_ranks=4, variant="hpc2d", solver=solver, max_iters=5, seed=11)
        np.testing.assert_allclose(par.W, seq.W, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(par.H, seq.H, rtol=1e-5, atol=1e-7)


class TestIterationHistoryConsistency:
    def test_history_matches_between_naive_and_hpc(self, dense_A):
        naive = fit(dense_A, k=3, n_ranks=4, variant="naive", max_iters=5, seed=13)
        hpc = fit(dense_A, k=3, n_ranks=4, variant="hpc2d", max_iters=5, seed=13)
        np.testing.assert_allclose(
            naive.relative_error_history, hpc.relative_error_history, rtol=1e-6
        )


class TestOneRankIsOneProgram:
    """At p = 1 every variant that runs Algorithm 3's loop — and Algorithm 2,
    whose collectives hand back their input there too — computes the same
    bits and the same history as the sequential reference, on every backend
    and solver; zero-weight ``regularized`` is the same program."""

    @pytest.mark.parametrize("backend", ["thread", "lockstep"])
    @pytest.mark.parametrize("solver", ["bpp", "hals", "mu"])
    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_same_bits_and_history(self, dense_A, sparse_A, kind, solver, backend):
        A = dense_A if kind == "dense" else sparse_A
        common = dict(k=4, solver=solver, max_iters=6, seed=7)
        reference = fit(A, variant="sequential", **common)
        runs = [fit(A, variant=v, n_ranks=1, backend=backend, **common)
                for v in ("hpc2d", "hpc1d", "naive", "regularized")]
        for res in runs:
            assert _digest(res) == _digest(reference), res.variant
            assert res.relative_error_history == reference.relative_error_history, res.variant
            assert res.objective_history == reference.objective_history, res.variant
