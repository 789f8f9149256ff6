"""Layout helpers of the local kernels: same bits, friendlier memory order."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.local_ops import matmul_a_ht, matmul_h_at, matmul_wt_a, transpose_into


@pytest.mark.parametrize(
    "shape", [(1000, 7), (256, 4), (257, 3), (5, 5), (3, 700), (0, 4), (4, 0)]
)
def test_transpose_into_equals_a_plain_transpose(shape):
    src = np.random.default_rng(0).standard_normal(shape)
    out = np.full(shape[::-1], np.nan)
    assert transpose_into(src, out) is out
    assert out.tobytes() == np.ascontiguousarray(src.T).tobytes()


def test_transpose_into_writes_through_a_strided_destination():
    src = np.random.default_rng(1).standard_normal((600, 5))
    wide = np.zeros((5, 900))
    transpose_into(src, wide[:, 100:700])
    np.testing.assert_array_equal(wide[:, 100:700], src.T)
    assert not wide[:, :100].any() and not wide[:, 700:].any()


def test_transpose_into_rejects_a_mismatched_destination():
    with pytest.raises(ValueError, match="expected"):
        transpose_into(np.zeros((6, 2)), np.zeros((6, 2)))


@pytest.mark.parametrize("fmt", ["csr", "csc"])
def test_sparse_wt_a_keeps_the_strided_copys_bits(fmt):
    rng = np.random.default_rng(2)
    A = sp.random(700, 900, density=0.02, random_state=3, format=fmt)
    W = rng.random((700, 6))
    reference = np.ascontiguousarray((A.T @ W).T)  # the pre-blocking formulation
    got = matmul_wt_a(W, A)
    assert got.flags.c_contiguous and got.shape == (6, 900)
    assert got.tobytes() == reference.tobytes()


# -- line 6 as H·Aᵀ: the k-leading primitive -----------------------------------

@pytest.mark.parametrize("fmt", ["csr", "csc"])
def test_sparse_h_at_keeps_the_strided_copys_bits(fmt):
    rng = np.random.default_rng(4)
    A = sp.random(700, 900, density=0.02, random_state=5, format=fmt)
    H = rng.random((6, 900))
    reference = np.ascontiguousarray((A @ H.T).T)
    got = matmul_h_at(H, A)
    assert got.flags.c_contiguous and got.shape == (6, 700)
    assert got.tobytes() == reference.tobytes()


def _dense_blocks():
    big = np.random.default_rng(6).random((90, 70))
    return {
        "whole": big,
        "row_panel": big[20:51],          # contiguous rows
        "col_panel": big[:, 10:45],       # strided
        "empty_panel": big[30:30],
        "fortran": np.asfortranarray(big),
    }


@pytest.mark.parametrize("h_order", ["C", "F"])
@pytest.mark.parametrize("block", sorted(_dense_blocks()))
def test_dense_h_at_is_the_k_leading_a_ht(block, h_order):
    A = _dense_blocks()[block]
    H = np.asarray(np.random.default_rng(7).random((5, A.shape[1])), order=h_order)
    got = matmul_h_at(H, A)
    assert got.flags.c_contiguous and got.shape == (5, A.shape[0])
    reference = np.ascontiguousarray((A @ H.T).T)
    scale = max(1.0, float(np.abs(reference).max(initial=0.0)))
    assert np.abs(got - reference).max(initial=0.0) <= 1e-13 * scale


@pytest.mark.parametrize("kind", ["dense", "csr"])
def test_h_at_writes_through_a_strided_destination(kind):
    dense = np.random.default_rng(8).random((600, 40))
    A = dense if kind == "dense" else sp.csr_matrix(np.where(dense > 0.8, dense, 0.0))
    H = np.random.default_rng(9).random((5, 40))
    wide = np.zeros((5, 900))
    got = matmul_h_at(H, A, out=wide[:, 100:700])
    assert np.shares_memory(got, wide)
    assert wide[:, 100:700].tobytes() == matmul_h_at(H, A).tobytes()
    assert not wide[:, :100].any() and not wide[:, 700:].any()


@pytest.mark.parametrize("kind", ["dense", "csr"])
def test_h_at_rejects_a_mismatched_destination(kind):
    A = np.ones((6, 4)) if kind == "dense" else sp.csr_matrix(np.ones((6, 4)))
    with pytest.raises(ValueError):
        matmul_h_at(np.ones((2, 4)), A, out=np.zeros((6, 2)))


@pytest.mark.parametrize("kind", ["dense", "csr"])
def test_a_ht_is_the_transposed_view_of_h_at(kind):
    dense = np.random.default_rng(10).random((300, 50))
    A = dense if kind == "dense" else sp.csr_matrix(np.where(dense > 0.7, dense, 0.0))
    Ht = np.random.default_rng(11).random((50, 4))
    got = matmul_a_ht(A, Ht)
    assert got.shape == (300, 4)
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(matmul_h_at(Ht.T, A).T).tobytes()
