"""Package-level tests: lazy exports, version, initialization conventions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

import repro
from repro.core.initialization import (
    init_h_global,
    init_h_local,
    init_h_slice,
    init_w_global,
)


class TestLazyExports:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_lazy_attributes_resolve(self):
        assert callable(repro.fit)
        assert callable(repro.NMF)
        assert repro.NMFConfig(k=3).k == 3
        assert repro.NMFResult is not None

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.not_a_real_symbol

    def test_dir_lists_exports(self):
        listing = dir(repro)
        for name in ("fit", "NMF", "NMFConfig", "NMFResult"):
            assert name in listing
        assert "nmf" not in listing  # the pre-registry shims are gone


class TestInitialization:
    def test_slices_of_global_h_reassemble_exactly(self):
        k, n, seed = 4, 37, 11
        full = init_h_global(k, n, seed)
        pieces = [init_h_slice(k, n, seed, (lo, lo + 9)) for lo in range(0, 36, 9)]
        pieces.append(init_h_slice(k, n, seed, (36, 37)))
        np.testing.assert_array_equal(np.concatenate(pieces, axis=1), full)

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 6),
        n=st.integers(1, 60),
        seed=st.integers(0, 2**31 - 1),
        cuts=st.lists(st.integers(0, 60), max_size=6),
    )
    def test_ragged_slices_draw_exactly_their_own_columns(self, k, n, seed, cuts):
        """Any tiling of [0, n) — empty and single-column ranges included —
        reassembles the global matrix, each slice drawn without its neighbours."""
        edges = sorted({0, n, *(c for c in cuts if c <= n)})
        ranges = list(zip(edges, edges[1:])) + [(edges[1], edges[1])]  # plus an empty one
        full = init_h_global(k, n, seed)
        for lo, hi in ranges:
            piece = init_h_slice(k, n, seed, (lo, hi))
            assert piece.shape == (k, hi - lo) and piece.flags.c_contiguous
            np.testing.assert_array_equal(piece, full[:, lo:hi])

    def test_global_h_deterministic_and_nonnegative(self):
        a = init_h_global(3, 10, 5)
        b = init_h_global(3, 10, 5)
        np.testing.assert_array_equal(a, b)
        assert np.all(a >= 0) and np.all(a < 1)

    def test_local_init_differs_between_ranks(self):
        a = init_h_local(3, 8, seed=1, rank=0)
        b = init_h_local(3, 8, seed=1, rank=1)
        assert a.shape == b.shape == (3, 8)
        assert not np.allclose(a, b)

    def test_w_init_differs_from_h_init(self):
        W = init_w_global(10, 3, seed=2)
        H = init_h_global(3, 10, seed=2)
        assert not np.allclose(W, H.T)
