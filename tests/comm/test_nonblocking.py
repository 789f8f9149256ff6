"""Collective handles: one completion mode, on every backend.

The contract under test (see repro/comm/nonblocking.py): ``iallgatherv`` /
``iallreduce`` / ``ireduce_scatter`` run the blocking collective at issue
and return a handle that is already done — ``wait()`` is idempotent and its
result byte-identical to the blocking call's, the ledger holds exactly the
blocking call's entries, and no thread is started for any of it.
"""

import threading

import numpy as np
import pytest

from repro.comm import ReduceOp, run_spmd
from repro.comm.backends.mpi import MPI4PY_AVAILABLE
from repro.comm.cost import CostLedger
from repro.comm.nonblocking import CommHandle, drain, finish
from repro.comm.profiler import Profiler, TaskCategory

BACKENDS = (
    "lockstep",
    "thread",
    "process",
    "socket",
    # Inside pytest the MPI world has one rank; CI's mpi leg replays the parity
    # suite under ``mpirun -n 4`` (tests/comm/mpi_parity_program.py).
    pytest.param("mpi", marks=pytest.mark.skipif(not MPI4PY_AVAILABLE, reason="mpi4py not installed")),
)

# 3-4 forked ranks oversubscribe small hosts on purpose: parity, not speed (the
# warning has its own test in tests/comm/test_forked_backends.py).
pytestmark = pytest.mark.filterwarnings("ignore:.*oversubscribe.*:RuntimeWarning")


def _ranks(backend, p):
    return 1 if backend == "mpi" else p


def _ops_program(comm):
    """Issue all three ops; compare with their blocking twins, byte for byte."""
    threads_before = threading.active_count()
    rng = np.random.default_rng(1234 + comm.rank)
    gathered = rng.standard_normal((3, 4))
    reduced = rng.standard_normal((5, 5))
    scattered = rng.standard_normal((comm.size * 2, 3))

    blocking = (
        comm.allgatherv(gathered, axis=0),
        comm.allreduce(reduced),
        comm.reduce_scatter(scattered, axis=0),
    )
    assert comm.ensure_nonblocking() is False  # nothing to prepare, nothing started
    handles = (
        comm.iallgatherv(gathered, axis=0),
        comm.iallreduce(reduced),
        comm.ireduce_scatter(scattered, axis=0),
    )
    done_at_issue = all(isinstance(h, CommHandle) and h.done and h.test() for h in handles)
    results = tuple(h.wait() for h in handles)
    identical = all(
        np.array_equal(b, r) and b.dtype == r.dtype for b, r in zip(blocking, results)
    )
    stable = all(h.wait() is r for h, r in zip(handles, results))
    comm.shutdown_nonblocking()
    comm.shutdown_nonblocking()  # idempotent
    # Thread-backend ranks share one interpreter, so only "nobody started
    # anything" is checkable from inside; the forked suites check by name.
    no_new_thread = comm.size > 1 or threading.active_count() == threads_before
    return done_at_issue and identical and stable and no_new_thread


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("p", [1, 3, 4])
def test_handles_are_done_at_issue_and_match_blocking(backend, p):
    assert all(run_spmd(_ranks(backend, p), _ops_program, backend=backend))
    assert not [t.name for t in threading.enumerate() if t.name.startswith("nb-helper")]


@pytest.mark.parametrize("backend", BACKENDS)
def test_out_buffers_and_max_reduction(backend):
    def program(comm):
        rng = np.random.default_rng(7 + comm.rank)
        local = rng.standard_normal((4, 4))
        out = np.empty((4, 4))
        blocking = comm.allreduce(local, op=ReduceOp.MAX)
        result = comm.iallreduce(local, op=ReduceOp.MAX, out=out).wait()
        # A size-1 communicator hands back its input; anything larger fills out.
        return result is (out if comm.size > 1 else local) and np.array_equal(blocking, result)

    assert all(run_spmd(_ranks(backend, 4), program, backend=backend))


@pytest.mark.parametrize("backend", BACKENDS)
def test_ledger_identical_to_blocking(backend):
    def program(comm, through_handles):
        rng = np.random.default_rng(42 + comm.rank)
        a = rng.standard_normal((2, 4))
        b = rng.standard_normal((3, 3))
        c = rng.standard_normal((comm.size, 2))
        ledger = CostLedger()
        comm.attach_ledger(ledger)
        if through_handles:
            comm.iallgatherv(a, axis=0).wait()
            comm.iallreduce(b).wait()
            comm.ireduce_scatter(c, axis=0).wait()
            comm.ireduce_scatter(c, axis=0, record=False).wait()  # booked by the caller
        else:
            comm.allgatherv(a, axis=0)
            comm.allreduce(b)
            comm.reduce_scatter(c, axis=0)
        return ledger.summary()

    p = _ranks(backend, 4)
    blocking = run_spmd(p, lambda c: program(c, False), backend=backend)
    handled = run_spmd(p, lambda c: program(c, True), backend=backend)
    assert blocking == handled


@pytest.mark.parametrize("backend", BACKENDS)
def test_finish_books_the_collective_under_its_category(backend):
    def program(comm):
        profiler = Profiler()
        local = np.full((3, 3), float(comm.rank))
        handle = comm.iallreduce(local)
        result = finish(handle, profiler, TaskCategory.ALL_REDUCE)
        breakdown = profiler.snapshot()
        return (
            np.array_equal(result, comm.allreduce(local)),
            handle.exposed_seconds,
            breakdown.get(TaskCategory.ALL_REDUCE),
            breakdown.hidden_communication,
            profiler.calls(TaskCategory.ALL_REDUCE),
        )

    for identical, exposed, booked, hidden, calls in run_spmd(
        _ranks(backend, 4), program, backend=backend
    ):
        assert identical
        assert exposed >= 0.0 and booked == exposed
        assert hidden == 0.0 and calls == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_failed_issue_raises_there_and_earlier_handles_survive_a_drain(backend):
    """A bad ``out`` raises from the issuing call on every rank alike (before
    anything moved), no handle exists for it, and draining what was issued
    before — the error-path cleanup — neither raises nor disturbs results."""
    from repro.util.errors import CommunicatorError

    def program(comm):
        local = np.full((2, 2), float(comm.rank + 1))
        first = comm.iallreduce(local)
        second = comm.iallgatherv(local, axis=0)
        try:
            comm.iallreduce(local, out=np.empty((3, 3)))  # wrong shape
        except CommunicatorError:
            drain([first, second])
        else:
            return False
        total = sum(float(r + 1) for r in range(comm.size))
        ok = np.array_equal(first.wait(), np.full((2, 2), total))
        ok = ok and second.wait().shape == (2 * comm.size, 2)
        # The communicator is still usable: same collective, good arguments.
        return ok and np.array_equal(comm.iallreduce(local).wait(), first.wait())

    assert all(run_spmd(_ranks(backend, 3), program, backend=backend))
