"""Unit tests for input validation helpers."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.util.errors import NonNegativityError, ShapeError
from repro.util.validation import (
    check_matrix,
    check_nonnegative,
    check_nonnegative_matrix,
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


SPECIAL = {
    "+0": 0.0, "-0": -0.0, "+tiny": 5e-324, "-tiny": -5e-324, "+max": 1.7976931348623157e308,
    "-max": -1.7976931348623157e308, "+inf": np.inf, "-inf": -np.inf, "nan": np.nan,
    "-nan": -np.nan, "-1": -1.0,
}


def _two_checks(A):
    """The pair the single pass replaces: what it must raise, or None."""
    try:
        check_nonnegative(check_matrix(A))
    except (ShapeError, NonNegativityError) as exc:
        return type(exc)
    return None


def _outcome(A):
    try:
        check_nonnegative_matrix(A)
    except (ShapeError, NonNegativityError) as exc:
        return type(exc)
    return None


def _layouts(A):
    """C-ordered, Fortran-ordered, strided (every other row and column), sparse."""
    wide = np.zeros((2 * A.shape[0], 2 * A.shape[1]))
    wide[::2, ::2] = A
    return {"C": A, "F": np.asfortranarray(A), "strided": wide[::2, ::2],
            "csr": sp.csr_matrix(A), "csc": sp.csc_matrix(A)}


class TestCheckNonnegativeMatrix:
    """One unsigned maximum over the bits, the exact checks only when it fails."""

    @pytest.mark.parametrize("name", sorted(SPECIAL))
    def test_every_special_value_ends_as_the_two_checks_do(self, name):
        A = np.random.default_rng(0).random((30, 20))
        A[17, 3] = SPECIAL[name]
        for layout, X in _layouts(A).items():
            assert _outcome(X) == _two_checks(X), layout

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_minus_zero_is_accepted_and_kept(self, layout):
        A = np.random.default_rng(1).random((30, 20))
        A[5, 5] = -0.0
        got = check_nonnegative_matrix(_layouts(A)[layout])
        assert np.signbit(got[5, 5]) and got.tobytes() == A.tobytes()

    @pytest.mark.parametrize("fmt", ["csr", "csc"])
    def test_a_stored_minus_zero_is_accepted_and_kept(self, fmt):
        S = sp.random(30, 20, density=0.3, random_state=1, format=fmt)
        S.data[4] = -0.0
        got = check_nonnegative_matrix(S)
        assert np.signbit(got.data).sum() == 1

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "csr", "csc"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_raises_shape_error(self, value, layout):
        A = np.random.default_rng(2).random((30, 20))
        A[29, 19] = value
        with pytest.raises(ShapeError, match="NaN or Inf"):
            check_nonnegative_matrix(_layouts(A)[layout])

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "csr", "csc"])
    def test_negative_raises_non_negativity_error(self, layout):
        A = np.random.default_rng(3).random((30, 20))
        A[0, 7] = -1e-300
        with pytest.raises(NonNegativityError, match="nonnegative"):
            check_nonnegative_matrix(_layouts(A)[layout])

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "csr", "csc"])
    def test_nan_is_reported_before_a_negative(self, layout):
        A = np.random.default_rng(4).random((30, 20))
        A[0, 0] = -2.0
        A[20, 10] = np.nan
        with pytest.raises(ShapeError, match="NaN or Inf"):
            check_nonnegative_matrix(_layouts(A)[layout])

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "csr", "csc"])
    def test_valid_input_comes_back_canonical(self, layout):
        A = np.random.default_rng(5).random((30, 20))
        got = check_nonnegative_matrix(_layouts(A)[layout])
        if layout in ("csr", "csc"):
            assert got.format == "csr" and got.dtype == np.float64
            got = got.toarray()
        assert got.flags["C_CONTIGUOUS"] and got.tobytes() == A.tobytes()

    def test_c_ordered_float64_input_is_returned_as_is(self):
        A = np.random.default_rng(6).random((20, 10))
        assert check_nonnegative_matrix(A) is A

    def test_shape_errors_come_first(self):
        with pytest.raises(ShapeError, match="2-D"):
            check_nonnegative_matrix(-np.arange(5.0))
        with pytest.raises(ShapeError, match="zero dimension"):
            check_nonnegative_matrix(np.zeros((0, 4)))

    def test_an_empty_sparse_matrix_passes(self):
        assert check_nonnegative_matrix(sp.csr_matrix((5, 5))).nnz == 0

    def test_allocates_no_matrix_sized_temporary(self):
        import tracemalloc

        A = np.random.default_rng(7).random((2000, 1000))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            assert check_nonnegative_matrix(A) is A
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


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
