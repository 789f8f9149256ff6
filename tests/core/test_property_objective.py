"""Hypothesis property tests for the objective computation and the NMF invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import fit
from repro.core.objective import frobenius_error, relative_error


@given(
    m=st.integers(2, 25),
    n=st.integers(2, 20),
    k=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_gram_trick_error_matches_direct_norm(m, n, k, seed):
    rng = np.random.default_rng(seed)
    A = rng.random((m, n))
    W = rng.random((m, k))
    H = rng.random((k, n))
    direct = np.linalg.norm(A - W @ H, "fro")
    via_trick = frobenius_error(A, W, H)
    np.testing.assert_allclose(via_trick, direct, rtol=1e-9, atol=1e-9)


@given(
    m=st.integers(4, 20),
    n=st.integers(4, 16),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=20, deadline=None)
def test_nmf_factors_nonnegative_and_error_bounded(m, n, seed):
    rng = np.random.default_rng(seed)
    A = rng.random((m, n))
    k = min(3, min(m, n))
    result = fit(A, k=k, variant="sequential", max_iters=3, seed=seed % 1000)
    assert np.all(result.W >= 0)
    assert np.all(result.H >= 0)
    # Relative error of any NMF is at most 1 (the zero factorization).
    assert 0.0 <= result.relative_error <= 1.0 + 1e-9


@given(
    m=st.integers(3, 15),
    n=st.integers(3, 12),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_relative_error_is_scale_invariant(m, n, k, seed):
    rng = np.random.default_rng(seed)
    A = rng.random((m, n)) + 0.1
    W = rng.random((m, k))
    H = rng.random((k, n))
    scale = 7.5
    np.testing.assert_allclose(
        relative_error(A, W, H),
        relative_error(scale * A, scale * W, H),
        rtol=1e-9,
    )
