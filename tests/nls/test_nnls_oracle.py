"""Tests for the Lawson–Hanson reference solver itself (the oracle must be right)."""

import numpy as np
import pytest

from oracles import active_set_nnls, check_kkt
from repro.util.errors import ShapeError


def test_known_small_problem():
    # min ||Cx - b|| with C = I: solution is the positive part of b.
    gram = np.eye(3)
    rhs = np.array([1.0, -2.0, 3.0])
    x = active_set_nnls(gram, rhs)
    np.testing.assert_allclose(x, [1.0, 0.0, 3.0])


def test_matches_scipy_nnls_on_random_problems():
    from scipy.optimize import nnls as scipy_nnls

    rng = np.random.default_rng(0)
    for _ in range(10):
        C = rng.random((25, 6))
        b = rng.standard_normal(25)
        x_ours = active_set_nnls(C.T @ C, C.T @ b)
        x_scipy, _ = scipy_nnls(C, b)
        np.testing.assert_allclose(x_ours, x_scipy, atol=1e-7)


def test_kkt_satisfied_on_batch():
    rng = np.random.default_rng(3)
    C = rng.standard_normal((30, 5))
    B = rng.standard_normal((30, 4))
    gram, rhs = C.T @ C, C.T @ B
    X = active_set_nnls(gram, rhs)
    assert X.shape == (5, 4)
    assert check_kkt(gram, rhs, X, tol=1e-7)


def test_shape_validation():
    with pytest.raises(ShapeError):
        active_set_nnls(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ShapeError):
        active_set_nnls(np.eye(3), np.zeros(4))
