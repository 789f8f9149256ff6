"""Sparse products in column panels: the one-panel loop's bits, borrowed memory.

The reference is the one-panel product, ``csr_product_t([(S, 0)], ...)`` over
a ``SPARSE_BLOCK_ROWS``-row scratch block: what every fit without a lent
accumulator runs.  Panel widths here are small so that a few hundred columns
make many panels, ragged ones and empty ones included.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import repro.core.local_ops as local_ops_mod
from repro.comm.communicator import SelfComm
from repro.comm.grid import ProcessGrid
from repro.core.api import fit
from repro.core.local_ops import (
    SPARSE_BLOCK_ROWS,
    BlockProducts,
    column_panels,
    csr_product_t,
    transposed_panels,
)
from repro.data import sparse_synthetic
from repro.dist.distmatrix import DistMatrix2D

B = SPARSE_BLOCK_ROWS
WIDTH = 37


def _empty_rows():
    """Runs of empty rows, one of them longer than a scratch block."""
    A = sp.random(2 * B + 300, 400, density=0.02, random_state=1, format="lil")
    A[10:B + 200, :] = 0.0
    A[-1, :] = 0.0
    return A.tocsr()


def _empty_panel():
    """Columns (and rows) [WIDTH, 3·WIDTH) hold nothing: whole panels of both
    products have no nonzeros."""
    A = sp.random(500, 400, density=0.05, random_state=2, format="lil")
    A[:, WIDTH:3 * WIDTH] = 0.0
    A[WIDTH:3 * WIDTH, :] = 0.0
    return A.tocsr()


def _ragged_last_panel(index_dtype=np.int32):
    """Neither dimension is a multiple of the panel width."""
    A = sp.random(B + 777, 5 * WIDTH + 11, density=0.03, random_state=3, format="csr")
    A.indptr, A.indices = A.indptr.astype(index_dtype), A.indices.astype(index_dtype)
    return A


def _duplicates_canonicalised():
    """Every stored entry split in two, rows reversed: ``DistMatrix2D`` sums
    the duplicates and sorts the rows into a canonical block."""
    A = sp.random(600, 300, density=0.05, random_state=4, format="csr")
    indptr, indices, data = 2 * A.indptr, np.repeat(A.indices, 2), np.repeat(A.data, 2) / 3
    for r in range(A.shape[0]):
        s, e = indptr[r], indptr[r + 1]
        indices[s:e], data[s:e] = indices[s:e][::-1].copy(), data[s:e][::-1].copy()
    raw = sp.csr_matrix((data, indices, indptr), shape=A.shape)
    assert not raw.has_canonical_format
    block = DistMatrix2D.from_global(ProcessGrid(SelfComm(), 1, 1), raw).block
    assert block.has_canonical_format and block.nnz == A.nnz
    return block


CASES = {
    "empty_rows": _empty_rows,
    "empty_panel": _empty_panel,
    "ragged_last_panel": _ragged_last_panel,
    "ragged_int64": lambda: _ragged_last_panel(np.int64),
    "duplicates_canonicalised": _duplicates_canonicalised,
}


def _ranges(extent):
    """The whole extent, three reduce-scatter-like sub-ranges, and an empty one."""
    cuts = [0, extent // 3, (2 * extent) // 3, extent]
    return [(0, extent)] + list(zip(cuts, cuts[1:])) + [(cuts[1], cuts[1])]


def _one_panel(csr, X, lo, hi):
    return csr_product_t([(csr, 0)], X, np.full((X.shape[1], hi - lo), np.nan), lo, hi)


def _paneled(panels, X, lo, hi):
    k = X.shape[1]
    accumulator = np.full((hi - lo, k), np.nan)
    return csr_product_t(panels, X, np.full((k, hi - lo), np.nan), lo, hi, accumulator)


@pytest.mark.parametrize("k", [1, 7, 32, 33])
@pytest.mark.parametrize("case", sorted(CASES))
def test_panels_give_the_one_panel_bits(case, k):
    """Line 6 (column panels of the block) and line 12 (transposes of its row
    slices), over full-height accumulators, equal the one-panel loop byte for
    byte on every row range, and that loop equals scipy."""
    S = CASES[case]()
    rng = np.random.default_rng(k)
    m, n = S.shape
    Ht, W = rng.random((n, k)), rng.random((m, k))
    rows, cols = column_panels(S, WIDTH), transposed_panels(S, WIDTH)
    assert len(rows) == -(-n // WIDTH) and len(cols) == -(-m // WIDTH)
    St = S.T.tocsr()
    for lo, hi in _ranges(m):
        want = _one_panel(S, Ht, lo, hi)
        assert _paneled(rows, Ht, lo, hi).tobytes() == want.tobytes()
        assert want.tobytes() == np.ascontiguousarray((S[lo:hi] @ Ht).T).tobytes()
    for lo, hi in _ranges(n):
        want = _one_panel(St, W, lo, hi)
        assert _paneled(cols, W, lo, hi).tobytes() == want.tobytes()
        assert want.tobytes() == np.ascontiguousarray((S[:, lo:hi].T @ W).T).tobytes()


@pytest.mark.parametrize("k", [1, 7, 32, 33])
@pytest.mark.parametrize("case", sorted(CASES))
def test_lent_block_products_give_the_one_panel_bits(case, k, monkeypatch):
    """Through :class:`BlockProducts`: a lent pair of accumulators cuts both
    products into panels (``PANEL_BYTES`` set to ``WIDTH`` rows of ``X``) and
    changes no bit; the lent memory is the only accumulator written."""
    monkeypatch.setattr(local_ops_mod, "PANEL_BYTES", 8 * k * WIDTH)
    S = CASES[case]()
    rng = np.random.default_rng(k + 1)
    m, n = S.shape
    H, W = rng.random((k, n)), rng.random((m, k))
    plain, lent = BlockProducts(S, k), BlockProducts(S, k)
    acc6, acc12 = np.empty(k * m), np.empty(k * n)
    lent.lend(acc6, acc12)
    plain.set_h(H)
    lent.set_h(H)
    for lo, hi in _ranges(m):
        want = plain.h_at(np.empty((k, hi - lo)), lo, hi)
        assert lent.h_at(np.empty((k, hi - lo)), lo, hi).tobytes() == want.tobytes()
    for lo, hi in _ranges(n):
        want = plain.wt_a(W, np.empty((k, hi - lo)), lo, hi)
        assert lent.wt_a(W, np.empty((k, hi - lo)), lo, hi).tobytes() == want.tobytes()
    assert [len(p) for p in plain._panels] == [1, 1]
    assert [len(p) for p in lent._panels] == [-(-n // WIDTH), -(-m // WIDTH)]


def test_unsorted_rows_stay_one_panel():
    """Cutting a row whose columns are out of order would reorder its sum, so
    such a block keeps one panel for line 6 (line 12's transposes are sorted)."""
    S = sp.random(300, 200, density=0.1, random_state=6, format="csr")
    for r in range(S.shape[0]):
        s, e = S.indptr[r], S.indptr[r + 1]
        S.indices[s:e], S.data[s:e] = S.indices[s:e][::-1].copy(), S.data[s:e][::-1].copy()
    S.has_sorted_indices = False
    assert len(column_panels(S, WIDTH)) == 1
    Ht = np.random.default_rng(7).random((200, 5))
    products = BlockProducts(S, 5)
    products.lend(np.empty(5 * 300), np.empty(5 * 200))
    products.set_h(Ht.T)
    got = products.h_at(np.empty((5, 300)))
    assert got.tobytes() == np.ascontiguousarray((S @ Ht).T).tobytes()


# -- fits --------------------------------------------------------------------

K = 32


def _wide_input():
    """Wider than one 4 MiB panel at k = 32 (16 384 columns) on each rank of a
    2 × 1 grid, and taller than one line-12 panel."""
    return sparse_synthetic(40000, 40000, density=2e-4, seed=9)


def _fit(A, grid=(2, 1)):
    return fit(A, K, variant="hpc2d", n_ranks=grid[0] * grid[1], backend="thread", grid=grid,
               solver="hals", max_iters=3, seed=5)


def _one_panel_everywhere(monkeypatch):
    monkeypatch.setattr(local_ops_mod, "PANEL_BYTES", 1 << 62)


@pytest.mark.parametrize("grid, panel_rows", [
    ((2, 1), None),    # sparse_wire's grid at the real panel width
    ((2, 2), 300),
    ((3, 1), 300),
    ((1, 2), 300),     # pr = 1: nothing to lend, one panel either way
])
def test_a_paneled_fit_has_the_one_panel_fits_bits(grid, panel_rows, monkeypatch):
    if panel_rows is None:
        A = _wide_input()
        assert A.shape[1] > local_ops_mod.panel_width(K)
    else:
        A = sparse_synthetic(3000, 2400, density=5e-3, seed=11)
        monkeypatch.setattr(local_ops_mod, "PANEL_BYTES", 8 * K * panel_rows)
    counts = []
    real = local_ops_mod.csr_product_t

    def counting(panels, *args):
        counts.append(len(panels))
        return real(panels, *args)

    monkeypatch.setattr(local_ops_mod, "csr_product_t", counting)
    paneled = _fit(A, grid)
    assert (max(counts) > 1) == (grid[0] > 1), counts
    _one_panel_everywhere(monkeypatch)
    counts.clear()
    reference = _fit(A, grid)
    assert max(counts) == 1
    assert paneled.W.tobytes() == reference.W.tobytes()
    assert paneled.H.tobytes() == reference.H.tobytes()
    assert paneled.relative_error_history == reference.relative_error_history
    assert paneled.ledger_summary == reference.ledger_summary


def _traced_peak(A) -> int:
    tracemalloc.start()
    try:
        _fit(A)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_paneled_fit_borrows_its_accumulators(monkeypatch):
    """The whole traced peak of a pr = 2 sparse fit exceeds the one-panel
    fit's by no more than line 6's reordered copy of each rank's block (its
    values, column indices and one row pointer per panel) and line 12's row
    pointers beyond the first panel's: no accumulator is allocated."""
    A = _wide_input()
    width = local_ops_mod.panel_width(K)
    copies = 0
    for r0, r1 in ((0, A.shape[0] // 2), (A.shape[0] // 2, A.shape[0])):
        block = A[r0:r1]
        rows, cols = block.shape
        index = block.indices.itemsize
        copies += (8 + index) * block.nnz + index * (rows + 1) * -(-cols // width)  # line 6
        copies += index * (cols + 1) * (-(-rows // width) - 1)                      # line 12
    paneled = _traced_peak(A)
    _one_panel_everywhere(monkeypatch)
    one_panel = _traced_peak(A)
    assert paneled <= one_panel + copies, (paneled, one_panel, copies)
