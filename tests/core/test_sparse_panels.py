"""Sparse products over one set of column panels: the one-panel bits, borrowed memory.

A sparse block keeps one operand besides itself, its column panels
(:func:`~repro.core.local_ops.column_panels`).  Line 6 reads them in CSR form,
adding panel after panel into a lent accumulator; the reference is the
one-panel loop, ``csr_product_t([(S, 0)], ...)`` over a
``SPARSE_BLOCK_ROWS``-row scratch block.  Line 12 reads each panel as the CSC
of its transpose; the reference is the loop it replaced, which gathered
each output row from the CSR of ``Sᵀ`` (built here, in the test).  Panel
widths here are small so that a few hundred columns make many panels,
ragged ones and empty ones included.
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
    csc_product_t,
    csr_product_t,
)
from repro.data import sparse_synthetic
from repro.dist.distmatrix import DistMatrix2D, DoublePartitioned1D

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


def _unsorted_rows():
    """Each row's columns in reverse order (no duplicates)."""
    S = sp.random(300, 200, density=0.1, random_state=6, format="csr")
    for r in range(S.shape[0]):
        s, e = S.indptr[r], S.indptr[r + 1]
        S.indices[s:e], S.data[s:e] = S.indices[s:e][::-1].copy(), S.data[s:e][::-1].copy()
    S.has_sorted_indices = False
    return S


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


def _thirds(extent):
    """Three line-12 ranges as slices, off the ``WIDTH`` grid."""
    return [slice(lo, hi) for lo, hi in _ranges(extent)[1:4]]


def _one_panel(csr, X, lo, hi):
    return csr_product_t([(csr, 0)], X, np.full((X.shape[1], hi - lo), np.nan), lo, hi)


def _paneled(panels, X, lo, hi):
    k = X.shape[1]
    accumulator = np.full((hi - lo, k), np.nan)
    return csr_product_t(panels, X, np.full((k, hi - lo), np.nan), lo, hi, accumulator)


def _gathered_over_transpose(S, W, lo, hi):
    """Line 12 as the loop computed it before the column panels: each output
    row gathers its nonzeros from the CSR of ``Sᵀ``."""
    return _one_panel(sp.csr_matrix(S.T), W, lo, hi)


def _scattered(panels, W, lo, hi):
    return csc_product_t(panels, W, np.full((W.shape[1], hi - lo), np.nan), lo, hi)


@pytest.mark.parametrize("chunk", [None, 5, 1000])
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("on_grid", [True, False])
def test_column_panels_are_the_column_slices(index_dtype, on_grid, chunk, monkeypatch):
    """The build equals the column slices: every panel's row pointer, column
    indices and values are ``csr[:, first:first + width]``'s, whether the
    block is one build chunk or many (with rows longer than a chunk), and it
    is cut every ``WIDTH`` columns inside each range (an empty range cuts
    nothing)."""
    if chunk is not None:
        monkeypatch.setattr(local_ops_mod, "_BUILD_NONZEROS", chunk)
    S = _ragged_last_panel(index_dtype)
    n = S.shape[1]
    ranges = None if on_grid else _thirds(n) + [slice(n, n)]
    panels = column_panels(S, WIDTH, ranges)
    bounds = [(0, n)] if on_grid else [(r.start, r.stop) for r in ranges]
    assert [first for _, first in panels] == [
        c for lo, hi in bounds for c in range(lo, hi, WIDTH)
    ]
    assert sum(csr.shape[1] for csr, _ in panels) == n
    for csr, first in panels:
        want = S[:, first:first + csr.shape[1]]
        assert csr.shape == want.shape
        assert np.array_equal(csr.indptr, want.indptr)
        assert np.array_equal(csr.indices, want.indices)
        assert np.array_equal(csr.data, want.data)
    assert column_panels(S, n, None)[0][0] is S      # one panel is the block


@pytest.mark.parametrize("shape", [(0, 100), (50, 100)])
def test_column_panels_of_an_empty_block(shape):
    panels = column_panels(sp.csr_matrix(shape), WIDTH)
    assert [first for _, first in panels] == [0, WIDTH, 2 * WIDTH]
    for csr, _ in panels:
        assert csr.nnz == 0 and csr.shape[0] == shape[0] and not csr.indptr.any()


@pytest.mark.parametrize("k", [1, 7, 32, 33])
@pytest.mark.parametrize("case", sorted(CASES))
def test_panels_give_the_one_panel_bits(case, k):
    """Line 6 (the column panels in CSR form) over full-height accumulators
    equals the one-panel loop byte for byte on every row range, and that loop
    equals scipy.  Line 12 (the same panels read as the CSC of their
    transposes) equals the gather over ``Sᵀ`` and scipy on every column range,
    with the panels cut on the width grid or inside reduce-scatter ranges."""
    S = CASES[case]()
    rng = np.random.default_rng(k)
    m, n = S.shape
    Ht, W = rng.random((n, k)), rng.random((m, k))
    panels = column_panels(S, WIDTH)
    assert len(panels) == -(-n // WIDTH)
    for lo, hi in _ranges(m):
        want = _one_panel(S, Ht, lo, hi)
        assert _paneled(panels, Ht, lo, hi).tobytes() == want.tobytes()
        assert want.tobytes() == np.ascontiguousarray((S[lo:hi] @ Ht).T).tobytes()
    for cut in (panels, column_panels(S, WIDTH, _thirds(n))):
        for lo, hi in _ranges(n):
            want = _gathered_over_transpose(S, W, lo, hi)
            assert _scattered(cut, W, lo, hi).tobytes() == want.tobytes()
            assert want.tobytes() == np.ascontiguousarray((S[:, lo:hi].T @ W).T).tobytes()


@pytest.mark.parametrize("k", [1, 7, 32, 33])
@pytest.mark.parametrize("case", sorted(CASES))
def test_block_products_give_the_one_panel_bits(case, k, monkeypatch):
    """Through :class:`BlockProducts`, with ``PANEL_BYTES`` set to ``WIDTH``
    rows of ``X`` and the line-12 ranges off that grid: a lent accumulator
    cuts line 6 into the column panels and changes no bit, and line 12 over
    the same panels is the gather over ``Sᵀ``.  One panel set is built."""
    monkeypatch.setattr(local_ops_mod, "PANEL_BYTES", 8 * k * WIDTH)
    S = CASES[case]()
    rng = np.random.default_rng(k + 1)
    m, n = S.shape
    H, W = rng.random((k, n)), rng.random((m, k))
    plain, lent = BlockProducts(S, k, _thirds(n)), BlockProducts(S, k, _thirds(n))
    lent.lend(np.empty(k * m))
    plain.set_h(H)
    lent.set_h(H)
    for lo, hi in _ranges(m):
        want = plain.h_at(np.empty((k, hi - lo)), lo, hi)
        assert lent.h_at(np.empty((k, hi - lo)), lo, hi).tobytes() == want.tobytes()
    for products in (plain, lent):
        for lo, hi in _ranges(n):
            want = _gathered_over_transpose(S, W, lo, hi)
            assert products.wt_a(W, np.empty((k, hi - lo)), lo, hi).tobytes() == want.tobytes()
        assert len(products._panels) == sum(-(-(r.stop - r.start) // WIDTH) for r in _thirds(n))


def test_unsorted_rows_keep_line_6_on_one_panel(monkeypatch):
    """Cutting a row whose columns are out of order would reorder its line-6
    sum, so such a block keeps one panel for line 6 even when lent an
    accumulator.  Line 12 adds one nonzero per row to each output entry, in
    row order, so it runs over the panels, and its bits are still scipy's."""
    S = _unsorted_rows()
    k = 5
    monkeypatch.setattr(local_ops_mod, "PANEL_BYTES", 8 * k * WIDTH)
    counts = []
    real = local_ops_mod.csr_product_t

    def counting(panels, *args):
        counts.append(len(panels))
        return real(panels, *args)

    monkeypatch.setattr(local_ops_mod, "csr_product_t", counting)
    rng = np.random.default_rng(7)
    Ht, W = rng.random((200, k)), rng.random((300, k))
    products = BlockProducts(S, k)
    products.lend(np.empty(k * 300))
    products.set_h(Ht.T)
    got = products.h_at(np.empty((k, 300)))
    assert counts == [1]
    assert got.tobytes() == np.ascontiguousarray((S @ Ht).T).tobytes()
    for lo, hi in _ranges(200):
        got = products.wt_a(W, np.empty((k, hi - lo)), lo, hi)
        assert got.tobytes() == _gathered_over_transpose(S, W, lo, hi).tobytes()
        assert got.tobytes() == np.ascontiguousarray((S[:, lo:hi].T @ W).T).tobytes()
    assert len(products._panels) == -(-200 // WIDTH)


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_naive_column_block_is_csr_and_multiplies_over_panels(rank, monkeypatch):
    """Algorithm 2's column block ``Aⁱ`` is a CSR slice (no CSC copy), and its
    line 12 over column panels is the gather over its transpose."""
    k = 7
    monkeypatch.setattr(local_ops_mod, "PANEL_BYTES", 8 * k * WIDTH)
    A = _empty_panel()
    block = DoublePartitioned1D.from_global(rank, 3, A).col_block
    assert block.format == "csr"
    W = np.random.default_rng(rank).random((A.shape[0], k))
    products = BlockProducts(block, k)
    n = block.shape[1]
    got = products.wt_a(W, np.empty((k, n)))
    assert len(products._panels) == -(-n // WIDTH)
    assert got.tobytes() == _gathered_over_transpose(block, W, 0, n).tobytes()


# -- fits --------------------------------------------------------------------

K = 32


def _wide_input():
    """Wider than one 4 MiB panel at k = 32 (16 384 columns) on each rank of a
    2 × 1 grid, and each of its two line-12 ranges too."""
    return sparse_synthetic(40000, 40000, density=2e-4, seed=9)


def _fit(A, grid=(2, 1)):
    return fit(A, K, variant="hpc2d", n_ranks=grid[0] * grid[1], backend="thread", grid=grid,
               solver="hals", max_iters=3, seed=5)


def _panels_only_at_ranges(monkeypatch):
    """A panel as wide as anything: line 6 runs as one panel, and line 12's
    panels are its reduce-scatter ranges."""
    monkeypatch.setattr(local_ops_mod, "PANEL_BYTES", 1 << 62)


@pytest.mark.parametrize("grid, panel_rows", [
    ((2, 1), None),    # sparse_wire's grid at the real panel width
    ((2, 2), 300),
    ((3, 1), 300),
    ((1, 2), 300),     # pr = 1: nothing to lend, line 6 is one panel either way
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
    _panels_only_at_ranges(monkeypatch)
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


def test_a_paneled_fit_borrows_its_accumulator(monkeypatch):
    """Against the same fit with panels cut only at line 12's two ranges, the
    whole traced peak of a pr = 2 sparse fit grows by no more than its extra
    panels' row pointers (4 bytes per row; its scratch block, as tall as its
    widest panel, is the shorter one).  So line 6's full-height accumulator
    is borrowed, and cutting more panels costs nothing but their row
    pointers (``test_a_sparse_block_keeps_one_panel_set`` bounds what the
    panels cost in the first place)."""
    A = _wide_input()
    width = local_ops_mod.panel_width(K)
    extra = 0
    for r0, r1 in ((0, A.shape[0] // 2), (A.shape[0] // 2, A.shape[0])):
        rows, cols = A[r0:r1].shape
        ranges = (cols // 2, cols - cols // 2)          # block_counts(cols, 2)
        panels = sum(-(-extent // width) for extent in ranges)
        extra += 4 * (rows + 1) * (panels - len(ranges))
    paneled = _traced_peak(A)
    _panels_only_at_ranges(monkeypatch)
    at_ranges = _traced_peak(A)
    assert paneled <= at_ranges + extra, (paneled, at_ranges, extra)


@pytest.mark.parametrize("lent", [True, False])
def test_a_sparse_block_keeps_one_panel_set(lent):
    """What a rank's products keep, and all they keep: the column panels
    (12 bytes per nonzero and one 4-byte row pointer per panel) and a
    scratch block as tall as a panel.  No transposed copy, no line-12
    accumulator, and, when lent one, no line-6 accumulator.  Building the
    panels holds at most 32 bytes per nonzero of one build chunk more."""
    A = _wide_input()
    block = DistMatrix2D.from_global(ProcessGrid(SelfComm(), 1, 1), A[:A.shape[0] // 2]).block
    rows, cols = block.shape
    ranges = [slice(0, cols // 2), slice(cols // 2, cols)]
    rng = np.random.default_rng(3)
    Ht, W = rng.random((cols, K)), rng.random((rows, K))
    out6, out12 = np.empty((K, rows)), np.empty((K, cols // 2))
    accumulator = np.empty(K * rows)
    tracemalloc.start()
    try:
        products = BlockProducts(block, K, ranges)
        if lent:
            products.lend(accumulator)
        products.set_ht(Ht)
        products.h_at(out6)
        for r in ranges:
            products.wt_a(W, out12[:, :r.stop - r.start], r.start, r.stop)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    width = local_ops_mod.panel_width(K)
    panels = sum(-(-(r.stop - r.start) // width) for r in ranges)
    assert len(products._panels) == panels
    kept = 12 * block.nnz + 4 * (rows + 1) * panels + 8 * K * width
    assert held <= kept + (64 << 10), (held, kept)
    assert peak <= held + 32 * local_ops_mod._BUILD_NONZEROS, (peak, held)
