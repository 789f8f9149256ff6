"""Tests for symmetric NMF (graph clustering): ``fit(variant="symmetric")``."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.api import fit
from repro.core.observers import IterationObserver
from repro.core.symmetric import SymNMFResult
from repro.util.errors import ShapeError


def block_diagonal_graph(n_per_block=30, n_blocks=3, p_in=0.6, p_out=0.02, seed=0):
    """A graph with dense diagonal blocks (planted communities)."""
    rng = np.random.default_rng(seed)
    n = n_per_block * n_blocks
    labels = np.repeat(np.arange(n_blocks), n_per_block)
    same = labels[:, None] == labels[None, :]
    probs = np.where(same, p_in, p_out)
    A = (rng.random((n, n)) < probs).astype(float)
    np.fill_diagonal(A, 0.0)
    return A, labels


class TestSymmetricNMF:
    def test_rejects_a_rank_beyond_the_reduced_similarity(self):
        # A 4 x 5 input is reduced to its 5 x 5 column similarity first.
        with pytest.raises(ShapeError, match="exceeds"):
            fit(np.ones((4, 5)), 6, variant="symmetric", seed=0)

    def test_rejects_negative_alpha(self):
        A, _ = block_diagonal_graph(10, 2)
        with pytest.raises(ShapeError):
            fit(A, 2, variant="symmetric", alpha=-1.0, seed=0)

    def test_indicator_shape_and_nonnegativity(self):
        A, _ = block_diagonal_graph(15, 2, seed=1)
        res = fit(A, 2, variant="symmetric", max_iters=20, seed=1)
        assert isinstance(res, SymNMFResult)
        assert res.G.shape == (30, 2)
        assert np.all(res.G >= 0)
        assert res.labels.shape == (30,)

    def test_objective_decreases(self):
        A, _ = block_diagonal_graph(20, 3, seed=2)
        res = fit(A, 3, variant="symmetric", max_iters=25, seed=3)
        assert res.history[-1].objective <= res.history[0].objective

    def test_recovers_planted_communities(self):
        A, labels = block_diagonal_graph(30, 3, p_in=0.7, p_out=0.01, seed=4)
        res = fit(A, 3, variant="symmetric", max_iters=40, seed=5)
        # Cluster-label agreement up to permutation: for each found cluster,
        # the dominant true label should cover most of its members.
        correct = 0
        for cluster in range(3):
            members = np.flatnonzero(res.labels == cluster)
            if members.size:
                counts = np.bincount(labels[members], minlength=3)
                correct += counts.max()
        assert correct / labels.size > 0.9

    def test_sparse_input(self):
        A, _ = block_diagonal_graph(20, 2, seed=6)
        res_sparse = fit(sp.csr_matrix(A), 2, variant="symmetric", max_iters=10, seed=7)
        assert res_sparse.G.shape == (40, 2)
        assert np.isfinite(res_sparse.history[-1].objective)

    def test_directed_input_is_symmetrized(self):
        rng = np.random.default_rng(10)
        A = (rng.random((25, 25)) < 0.2).astype(float)
        res = fit(A, 2, variant="symmetric", max_iters=10, seed=11)
        assert np.all(np.isfinite(res.G))


class LiveFactors(IterationObserver):
    """Copies each iteration's live ``(W, H)`` and its recorded metrics."""

    def __init__(self):
        self.events = []

    def on_iteration(self, event):
        self.events.append((event.W.copy(), event.H.copy(), event.objective,
                            event.relative_error))


class TestSymmetryPenaltyHook:
    """The history is Algorithm 3's error path with the symmetry penalty added."""

    def _run(self, seed, **options):
        A, _ = block_diagonal_graph(20, 3, seed=2)
        watcher = LiveFactors()
        res = fit(A, 3, variant="symmetric", max_iters=12, seed=seed, observers=[watcher],
                  **options)
        return 0.5 * (A + A.T), res, watcher.events

    @pytest.mark.parametrize("alpha", [None, 3.5])
    def test_objective_is_residual_plus_penalty(self, alpha):
        S, res, events = self._run(seed=1, alpha=alpha)
        assert len(events) == res.iterations == 12
        assert res.alpha == (1.0 if alpha is None else alpha)  # max(S)² = 1 here
        for W, H, objective, rel_error in events:
            residual = np.linalg.norm(S - W @ H) ** 2
            expected = residual + res.alpha * np.linalg.norm(W - H.T) ** 2
            assert objective == pytest.approx(expected, rel=1e-10)
            assert rel_error == pytest.approx(np.sqrt(residual) / np.linalg.norm(S), rel=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_bpp_objective_never_increases(self, seed):
        _, res, _ = self._run(seed=seed, solver="bpp")
        history = np.array([s.objective for s in res.history])
        assert np.all(np.diff(history) <= 0.0)

    def test_observers_finish_with_the_symmetric_result(self):
        class Finish(IterationObserver):
            def on_finish(self, result):
                self.result = result

        watcher = Finish()
        A, _ = block_diagonal_graph(10, 2, seed=3)
        res = fit(A, 2, variant="symmetric", max_iters=3, seed=0, observers=[watcher])
        assert watcher.result is res
        assert isinstance(res, SymNMFResult)
        np.testing.assert_array_equal(res.H, res.G.T)
