"""Forked ranks share the CPUs out to the BLAS pool they inherit.

A ``process`` / ``socket`` rank starts with its parent's OpenBLAS pool (one
thread per CPU by default), so p ranks would run p × CPUs BLAS threads.  Right
after the fork each rank lowers its pool to ``max(1, available_cpus() // p)``
if it is higher, and otherwise touches nothing: the pinned runs of the test
suite and the benchmark (``OPENBLAS_NUM_THREADS=1``) call no setter, so their
bits cannot move.  CI also runs this file with every rank on one CPU
(``taskset -c 0``), where the cap is 1.
"""

import warnings

import pytest

from repro.comm.backends import run_spmd
from repro.util.cpus import available_cpus, cap_blas_threads, openblas_pools


class _Pool:
    """A stand-in pool recording what was set."""

    def __init__(self, threads):
        self.threads, self.calls = threads, []

    def get(self):
        return self.threads

    def set(self, threads):
        self.calls.append(threads)
        self.threads = threads


@pytest.mark.parametrize("threads, limit, calls", [(4, 2, [2]), (2, 2, []), (1, 1, []), (1, 3, [])])
def test_a_pool_is_only_ever_lowered(threads, limit, calls):
    pool = _Pool(threads)
    cap_blas_threads([(pool.get, pool.set)], limit)
    assert pool.calls == calls


def _blas_threads(comm):
    return [get() for get, _ in openblas_pools()]


@pytest.mark.parametrize("backend", ["process", "socket"])
def test_a_forked_rank_caps_the_pool_it_inherits(backend):
    pools = openblas_pools()
    if not pools:
        pytest.skip("the loaded BLAS is not an OpenBLAS that exports a thread setter")
    before = [get() for get, _ in pools]
    for _, set_ in pools:
        set_(2)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # p may exceed the CPUs here
            per_rank = run_spmd(2, _blas_threads, backend=backend)
        parent = [get() for get, _ in pools]
    finally:
        for (_, set_), threads in zip(pools, before):
            set_(threads)
    expected = min(2, max(1, available_cpus() // 2))
    assert per_rank == [[expected] * len(pools)] * 2
    assert parent == [2] * len(pools)  # the cap is the ranks' business only
