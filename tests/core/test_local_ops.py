"""The local kernels: same bits as scipy / BLAS, friendlier memory order."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.local_ops import (
    SPARSE_BLOCK_ROWS,
    BlockProducts,
    column_panels,
    csc_product_t,
    csr_product_t,
    matmul_a_ht,
    matmul_h_at,
    matmul_wt_a,
)

B = SPARSE_BLOCK_ROWS


def _with_empty_rows_and_cols():
    A = sp.random(2 * B + 37, 300, density=0.02, random_state=1, format="lil")
    A[100:400, :] = 0.0
    A[:, 50:90] = 0.0
    A[-1, :] = 0.0
    return A.tocsr()


def _one_row():
    return sp.random(1, 500, density=0.1, random_state=2, format="csr")


def _all_in_one_block():
    """Every nonzero in rows [B, 2B): the other blocks are all-empty rows."""
    dense = np.zeros((3 * B + 5, 120))
    rng = np.random.default_rng(3)
    dense[B:2 * B] = np.where(rng.random((B, 120)) > 0.95, rng.random((B, 120)), 0.0)
    return sp.csr_matrix(dense)


def _ragged(index_dtype):
    """A row count that is not a multiple of the block, with the given index type."""
    A = sp.random(B + 1234, 700, density=0.01, random_state=4, format="csr")
    A.indptr = A.indptr.astype(index_dtype)
    A.indices = A.indices.astype(index_dtype)
    return A


CASES = {
    "empty_rows_and_cols": _with_empty_rows_and_cols,
    "one_row": _one_row,
    "all_in_one_block": _all_in_one_block,
    "ragged_int32": lambda: _ragged(np.int32),
    "ragged_int64": lambda: _ragged(np.int64),
}


def _factors(A, k, seed=0):
    rng = np.random.default_rng(seed)
    m, n = A.shape
    return rng.random((k, n)), rng.random((m, k))


def _panel_edges(extent):
    """Ranges ending at the edges of a 3-way panel split, one of them empty."""
    cuts = sorted({0, extent // 3, extent // 3, (2 * extent) // 3, extent})
    return list(zip(cuts, cuts[1:])) + [(cuts[1], cuts[1])]


@pytest.mark.parametrize("k", [1, 7, 32])
@pytest.mark.parametrize("case", sorted(CASES))
def test_blocked_products_are_scipys_bits(case, k):
    A = CASES[case]()
    H, W = _factors(A, k)
    products = BlockProducts(A, k)
    products.set_h(H)
    m, n = A.shape
    h_at = products.h_at(np.full((k, m), np.nan))
    wt_a = products.wt_a(W, np.full((k, n), np.nan))
    assert h_at.tobytes() == np.ascontiguousarray((A @ H.T).T).tobytes()
    assert wt_a.tobytes() == np.ascontiguousarray((A.T @ W).T).tobytes()


@pytest.mark.parametrize("k", [1, 7, 32])
@pytest.mark.parametrize("case", sorted(CASES))
def test_blocked_panels_are_scipys_bits(case, k):
    """Row panels of line 6 and column panels of line 12 are ranges, not copies,
    and each equals scipy's product of the sliced block."""
    A = CASES[case]()
    H, W = _factors(A, k, seed=1)
    products = BlockProducts(A, k)
    products.set_h(H)
    m, n = A.shape
    for lo, hi in _panel_edges(m):
        got = products.h_at(np.full((k, hi - lo), np.nan), lo, hi)
        assert got.tobytes() == np.ascontiguousarray((A[lo:hi] @ H.T).T).tobytes()
    for lo, hi in _panel_edges(n):
        got = products.wt_a(W, np.full((k, hi - lo), np.nan), lo, hi)
        assert got.tobytes() == np.ascontiguousarray((A[:, lo:hi].T @ W).T).tobytes()


def test_block_products_reuse_their_operands():
    """The panels of both products, the scratch block and the home of the
    copied Hᵀ are built once; a strided W multiplies correctly and leaves
    that home alone."""
    A = _ragged(np.int32)
    k = 5
    products = BlockProducts(A, k)
    out_h, out_w = np.empty((k, A.shape[0])), np.empty((k, A.shape[1]))
    with pytest.raises(RuntimeError, match="set_h"):
        products.h_at(out_h)  # no Hᵀ yet
    held = None
    for seed in range(3):
        H, W = _factors(A, k, seed=seed)
        products.set_h(H)
        products.h_at(out_h)
        assert np.shares_memory(products._ht, products._operand)
        products.wt_a(np.asfortranarray(W), out_w)
        now = (*products._panels, products._operand, products._scratch)
        assert all(x is not None for x in now)
        if held is not None:
            assert all(a is b for a, b in zip(now, held))
        held = now
        assert out_h.tobytes() == np.ascontiguousarray((A @ H.T).T).tobytes()
        assert out_w.tobytes() == np.ascontiguousarray((A.T @ W).T).tobytes()
        # Hᵀ's home still holds Hᵀ after line 12.
        assert products.h_at(np.empty_like(out_h)).tobytes() == out_h.tobytes()


def test_set_ht_is_read_in_place():
    A = _ragged(np.int64)
    H, _ = _factors(A, 4, seed=3)
    products = BlockProducts(A, 4)
    Ht = np.ascontiguousarray(H.T)
    products.set_ht(Ht)
    got = products.h_at(np.empty((4, A.shape[0])))
    assert products._operand is None and products._ht is Ht
    assert got.tobytes() == np.ascontiguousarray((A @ H.T).T).tobytes()


def test_csr_product_t_writes_through_a_strided_destination():
    A = _ragged(np.int32)
    W = np.random.default_rng(5).random((A.shape[0], 3))
    wide = np.zeros((3, A.shape[1] + 200))
    csr_product_t([(A.T.tocsr(), 0)], W, wide[:, 100:-100])
    assert wide[:, 100:-100].tobytes() == np.ascontiguousarray((A.T @ W).T).tobytes()
    assert not wide[:, :100].any() and not wide[:, -100:].any()


def test_csr_product_t_rejects_a_mismatched_destination():
    A = sp.csr_matrix(np.ones((6, 4)))
    with pytest.raises(ValueError, match="expected"):
        csr_product_t([(A, 0)], np.ones((4, 2)), np.zeros((6, 2)))


def test_sparse_kernels_reject_what_they_would_write_past():
    """The kernels write through flat views: a scratch block too short,
    too narrow or strided, or an ``X`` of the wrong height, is refused."""
    A = sp.csr_matrix(np.ones((6, 4)))
    panels = column_panels(A, 2)
    for scratch in (np.empty((1, 3)), np.empty((2, 2)), np.empty((2, 6))[:, ::2]):
        with pytest.raises(ValueError, match="scratch"):
            csc_product_t(panels, np.ones((6, 3)), scratch=scratch)
    with pytest.raises(ValueError, match="scratch"):
        csr_product_t([(A, 0)], np.ones((4, 3)), scratch=np.empty((4, 2)))
    with pytest.raises(ValueError, match="rows"):
        csc_product_t(panels, np.ones((5, 3)))


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


@pytest.mark.parametrize("block", sorted(_dense_blocks()))
def test_dense_block_products_are_the_one_shot_products(block):
    """On a dense block the loops' products are the BLAS calls of the one-shot
    functions, written into the caller's buffer."""
    A = _dense_blocks()[block]
    rng = np.random.default_rng(8)
    H, W = rng.random((5, A.shape[1])), rng.random((A.shape[0], 5))
    products = BlockProducts(A, 5)
    products.set_h(H)
    h_at = products.h_at(np.empty((5, A.shape[0])))
    wt_a = products.wt_a(W, np.empty((5, A.shape[1])))
    assert h_at.tobytes() == matmul_h_at(H, A).tobytes()
    assert wt_a.tobytes() == np.ascontiguousarray(matmul_wt_a(W, A)).tobytes()


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
