"""Layout helpers of the local kernels: same bits, friendlier memory order."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.local_ops import matmul_wt_a, transpose_into


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
