"""Tests for the synthetic web-graph generator."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.webgraph import degree_statistics, web_graph_matrix


class TestWebGraph:
    def test_shape_and_format(self):
        A = web_graph_matrix(500, 2000, seed=0)
        assert A.shape == (500, 500)
        assert sp.issparse(A) and A.format == "csr"

    def test_edge_count_close_to_target(self):
        A = web_graph_matrix(2000, 10000, seed=1)
        assert A.nnz == pytest.approx(10000, rel=0.15)

    def test_no_self_loops(self):
        A = web_graph_matrix(300, 1500, seed=2)
        assert A.diagonal().sum() == 0.0

    def test_binary_adjacency(self):
        A = web_graph_matrix(300, 1500, seed=3)
        assert set(np.unique(A.data)) == {1.0}
        for option in ("weighted", "preferential_fraction"):
            with pytest.raises(TypeError, match=option):
                web_graph_matrix(300, 1500, seed=3, **{option: True})

    def test_heavy_tailed_in_degree(self):
        A = web_graph_matrix(3000, 20000, seed=4)
        stats = degree_statistics(A)
        # A heavy tail means the max degree is far above the mean.
        assert stats["in_max"] > 8 * stats["in_mean"]

    def test_deterministic_in_seed(self):
        A = web_graph_matrix(400, 1200, seed=7)
        B = web_graph_matrix(400, 1200, seed=7)
        assert (A != B).nnz == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            web_graph_matrix(1, 10)
        with pytest.raises(ValueError):
            web_graph_matrix(10, 0)

    def test_nmf_runs_on_graph_adjacency(self):
        from repro.core.api import fit

        A = web_graph_matrix(400, 3000, seed=5)
        res = fit(A, k=4, n_ranks=4, variant="hpc2d", max_iters=4, seed=1)
        assert res.W.shape == (400, 4)
        assert res.relative_error <= 1.0
