"""Tests for ProblemSpec: its constructor and its two adapters."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.registry import paper_scale
from repro.plan.problem import ProblemSpec
from repro.util.errors import ShapeError


class TestConstruction:
    def test_dense_defaults(self):
        problem = ProblemSpec(m=100, n=60, k=5)
        assert not problem.is_sparse
        assert problem.nnz_estimate == 100 * 60

    def test_sparse_carries_nnz(self):
        problem = ProblemSpec(m=100, n=60, k=5, nnz=120)
        assert problem.is_sparse
        assert problem.nnz_estimate == 120

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=0, n=10, k=1),
            dict(m=10, n=0, k=1),
            dict(m=10, n=10, k=0),
            dict(m=10, n=10, k=1, nnz=-1.0),
            dict(m=10, n=10, k=1, nnz=101.0),
        ],
    )
    def test_invalid_dimensions_rejected(self, kwargs):
        with pytest.raises(ShapeError):
            ProblemSpec(**kwargs)

    def test_round_trips_through_dict(self):
        problem = ProblemSpec(m=7, n=9, k=3, nnz=12.0, name="toy")
        assert ProblemSpec.from_dict(problem.to_dict()) == problem


class TestFromMatrix:
    def test_dense_ndarray(self):
        A = np.ones((40, 30))
        problem = ProblemSpec.from_matrix(A, 4)
        assert (problem.m, problem.n, problem.k) == (40, 30, 4)
        assert not problem.is_sparse
        assert problem.dtype == "float64"

    def test_sparse_counts_actual_nnz(self):
        A = sp.random(50, 40, density=0.1, format="csr", random_state=0)
        problem = ProblemSpec.from_matrix(A, 4)
        assert problem.is_sparse
        assert problem.nnz_estimate == A.nnz

    def test_list_input_coerced(self):
        problem = ProblemSpec.from_matrix([[1.0, 2.0], [3.0, 4.0]], 1)
        assert (problem.m, problem.n) == (2, 2)

    def test_non_2d_rejected(self):
        with pytest.raises(ShapeError):
            ProblemSpec.from_matrix(np.ones(5), 1)


class TestDatasetAdapter:
    def test_paper_specs_adapt(self):
        for name in ("SSYN", "DSYN", "Video", "Webbase"):
            spec = paper_scale(name)
            problem = ProblemSpec.from_dataset(spec, 50)
            assert (problem.m, problem.n) == (spec.m, spec.n)
            assert problem.is_sparse == spec.is_sparse
            assert problem.nnz_estimate == pytest.approx(spec.nnz_estimate)
            assert problem.name == spec.name

