"""Kernel parity: batched BPP must not change a single byte of any run.

The batched kernel regroups the BPP column loop but is built from the same
factorization primitives applied to the same passive-set groups in the same
order as the scalar kernel, so full factorizations — Algorithm 2 and
Algorithm 3, every backend, dense and sparse data — must produce
*byte-identical* factors and error histories.  This is the strongest possible
"the optimization changed nothing" statement, and it is what lets the
kernels registry default stay swappable without re-blessing every recorded
result.
"""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.api import fit
from repro.core.config import NMFConfig
from repro.data.lowrank import planted_lowrank


@pytest.fixture(autouse=True)
def _silence_oversubscription():
    # p=4 oversubscribes small hosts; the warning has its own test in
    # tests/comm/test_forked_backends.py.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def _dense():
    return planted_lowrank(32, 24, 3, seed=5, noise_std=0.05)


def _sparse():
    return sp.random(32, 24, density=0.2, random_state=5, format="csr")


def _pair(A, *, kernels=("scalar", "batched"), **kwargs):
    return [fit(A, 3, max_iters=4, seed=9, kernel=kernel, **kwargs)
            for kernel in kernels]


@pytest.mark.parametrize("backend", ["thread", "lockstep", "process"])
@pytest.mark.parametrize("variant", ["naive", "hpc1d", "hpc2d"])
def test_batched_is_byte_identical_on_every_backend(variant, backend):
    scalar, batched = _pair(_dense(), variant=variant, n_ranks=4, backend=backend)
    assert scalar.W.tobytes() == batched.W.tobytes()
    assert scalar.H.tobytes() == batched.H.tobytes()
    np.testing.assert_array_equal(
        scalar.relative_error_history, batched.relative_error_history
    )


@pytest.mark.parametrize("variant", ["naive", "hpc1d", "hpc2d"])
def test_batched_is_byte_identical_on_sparse_data(variant):
    scalar, batched = _pair(_sparse(), variant=variant, n_ranks=4, backend="thread")
    assert scalar.W.tobytes() == batched.W.tobytes()
    assert scalar.H.tobytes() == batched.H.tobytes()
    np.testing.assert_array_equal(
        scalar.relative_error_history, batched.relative_error_history
    )


def test_batched_is_byte_identical_sequentially():
    scalar, batched = _pair(_dense(), variant="sequential")
    assert scalar.W.tobytes() == batched.W.tobytes()
    assert scalar.H.tobytes() == batched.H.tobytes()


def test_kernel_flows_through_config():
    A = _dense()
    cfg = NMFConfig(k=3, max_iters=3, seed=2, kernel="batched")
    via_config = fit(A, 3, config=cfg)
    via_kwarg = fit(A, 3, max_iters=3, seed=2, kernel="batched")
    assert via_config.W.tobytes() == via_kwarg.W.tobytes()
    assert via_config.config.kernel == "batched"


def test_auto_kernel_resolves_and_matches_bytes():
    # "auto" is an alias of the default (batched) on every host, and batched
    # keeps byte parity with the scalar oracle, so the bytes match exactly.
    from repro.nls import resolve_kernel

    A = _dense()
    assert resolve_kernel("auto") == "batched"
    auto = fit(A, 3, max_iters=4, seed=9, kernel="auto")
    scalar = fit(A, 3, max_iters=4, seed=9, kernel="scalar")
    assert auto.W.tobytes() == scalar.W.tobytes()
    assert auto.H.tobytes() == scalar.H.tobytes()
    assert auto.config.kernel == "auto"
