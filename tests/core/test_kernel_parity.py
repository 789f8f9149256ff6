"""Kernel parity: batched BPP must not change a single byte of any run.

The batched kernel regroups the BPP column loop but is built from the same
factorization primitives applied to the same passive-set groups in the same
order as the scalar kernel, so full factorizations — Algorithm 2 and
Algorithm 3, every backend, dense and sparse data — must produce
*byte-identical* factors and error histories.  This is the strongest possible
"the optimization changed nothing" statement, and it is what lets the
kernels registry default stay swappable without re-blessing every recorded
result.

A fit has no kernel option: it runs :data:`repro.nls.kernels.DEFAULT_KERNEL`.
The oracle side of each cell therefore patches that default to ``scalar`` and
makes ``BatchedKernel._solve_groups`` raise, so a cell fails rather than
compares batched with itself if any rank — a forked one included, which
inherits the patch — still reaches the batched engine.
"""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.api import fit
from repro.data.lowrank import planted_lowrank
from repro.nls import kernels


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


def _batched_unreachable(*_args, **_kwargs):
    raise AssertionError("the batched BPP kernel ran while scalar was the default")


def _pair(A, monkeypatch, **kwargs):
    """``(scalar, batched)`` fits of ``A``: the oracle and the library default."""
    batched = fit(A, 3, max_iters=4, seed=9, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "DEFAULT_KERNEL", "scalar")
        patch.setattr(kernels.BatchedKernel, "_solve_groups",
                      staticmethod(_batched_unreachable))
        scalar = fit(A, 3, max_iters=4, seed=9, **kwargs)
    return scalar, batched


def _assert_same_bytes(scalar, batched):
    assert scalar.W.tobytes() == batched.W.tobytes()
    assert scalar.H.tobytes() == batched.H.tobytes()
    np.testing.assert_array_equal(
        scalar.relative_error_history, batched.relative_error_history
    )


def test_the_guard_trips_on_the_batched_kernel(monkeypatch):
    """The raising guard is what makes a cell an oracle comparison."""
    monkeypatch.setattr(kernels.BatchedKernel, "_solve_groups",
                        staticmethod(_batched_unreachable))
    with pytest.raises(AssertionError, match="batched BPP kernel ran"):
        fit(_dense(), 3, variant="sequential", max_iters=1)


@pytest.mark.parametrize("backend", ["thread", "lockstep", "process"])
@pytest.mark.parametrize("variant", ["naive", "hpc1d", "hpc2d"])
def test_batched_is_byte_identical_on_every_backend(variant, backend, monkeypatch):
    _assert_same_bytes(*_pair(_dense(), monkeypatch, variant=variant, n_ranks=4,
                              backend=backend))


@pytest.mark.parametrize("variant", ["naive", "hpc1d", "hpc2d"])
def test_batched_is_byte_identical_on_sparse_data(variant, monkeypatch):
    _assert_same_bytes(*_pair(_sparse(), monkeypatch, variant=variant, n_ranks=4,
                              backend="thread"))


def test_batched_is_byte_identical_sequentially(monkeypatch):
    _assert_same_bytes(*_pair(_dense(), monkeypatch, variant="sequential"))
