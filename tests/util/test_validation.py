"""Unit tests for input validation helpers."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.util.errors import NonNegativityError, ShapeError
from repro.util.validation import (
    check_matrix,
    check_nonnegative,
    check_rank,
    is_sparse,
)


class TestCheckMatrix:
    def test_dense_list_is_converted_to_float64(self):
        A = check_matrix([[1, 2], [3, 4]])
        assert isinstance(A, np.ndarray)
        assert A.dtype == np.float64
        assert A.flags["C_CONTIGUOUS"]

    def test_sparse_is_converted_to_csr(self):
        A = check_matrix(sp.coo_matrix(np.eye(3)))
        assert sp.issparse(A)
        assert A.format == "csr"

    def test_sparse_values_become_float64(self):
        A = check_matrix(sp.eye(3, dtype=np.int32, format="csc"))
        assert A.format == "csr" and A.dtype == np.float64
        assert (A != sp.eye(3)).nnz == 0

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            check_matrix(np.arange(5))

    def test_rejects_empty_dimension(self):
        with pytest.raises(ShapeError):
            check_matrix(np.zeros((0, 4)))

    def test_rejects_nan(self):
        A = np.ones((3, 3))
        A[1, 1] = np.nan
        with pytest.raises(ShapeError):
            check_matrix(A)

    def test_rejects_inf(self):
        A = np.ones((3, 3))
        A[0, 2] = np.inf
        with pytest.raises(ShapeError):
            check_matrix(A)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("where", [(0, 0), (1999, 999), (1000, 17)])
    def test_rejects_one_non_finite_entry_anywhere(self, value, where):
        A = np.random.default_rng(0).random((2000, 1000))
        A[where] = value
        with pytest.raises(ShapeError, match="NaN or Inf"):
            check_matrix(A)

    def test_finiteness_check_allocates_no_matrix_sized_temporary(self):
        """The fit's parent holds A once: no m × n boolean array on top."""
        import tracemalloc

        A = np.random.default_rng(1).random((2000, 1000))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            assert check_matrix(A) is A
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _sparse_with(value, fmt):
    A = sp.random(40, 30, density=0.3, random_state=0, format=fmt)
    A.data[3] = value
    return A


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("fmt", ["csr", "csc"])
class TestSparseNonFiniteRejected:
    """A non-finite stored value stops at the front door, not in LAPACK."""

    def test_check_matrix(self, value, fmt):
        with pytest.raises(ShapeError, match="NaN or Inf"):
            check_matrix(_sparse_with(value, fmt))

    @pytest.mark.parametrize("variant, options", [
        ("sequential", {}),
        ("hpc2d", {"n_ranks": 2, "backend": "thread"}),
    ])
    def test_fit(self, value, fmt, variant, options):
        from repro import fit

        with pytest.raises(ShapeError, match="NaN or Inf"):
            fit(_sparse_with(value, fmt), 4, variant=variant, max_iters=2, **options)


class TestCheckNonnegative:
    def test_accepts_nonnegative_dense(self):
        check_nonnegative(np.abs(np.random.default_rng(0).standard_normal((4, 4))))

    def test_rejects_negative_dense(self):
        A = np.ones((3, 3))
        A[2, 2] = -0.5
        with pytest.raises(NonNegativityError):
            check_nonnegative(A)

    def test_rejects_negative_sparse(self):
        A = sp.csr_matrix(np.array([[0.0, -1.0], [2.0, 0.0]]))
        with pytest.raises(NonNegativityError):
            check_nonnegative(A)

    def test_accepts_empty_sparse(self):
        check_nonnegative(sp.csr_matrix((5, 5)))


class TestCheckRank:
    def test_valid_rank_passes(self):
        assert check_rank(3, 10, 8) == 3

    def test_rank_zero_rejected(self):
        with pytest.raises(ShapeError):
            check_rank(0, 10, 10)

    def test_rank_above_min_dim_rejected(self):
        with pytest.raises(ShapeError):
            check_rank(9, 10, 8)


class TestConversions:
    def test_is_sparse(self):
        assert is_sparse(sp.eye(2))
        assert not is_sparse(np.eye(2))
