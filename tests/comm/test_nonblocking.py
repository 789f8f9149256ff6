"""Nonblocking collectives: byte-identity, handles, pinning, ledger purity.

The contract under test (see repro/comm/nonblocking.py): a nonblocking
collective returns a handle whose ``wait()`` yields a result byte-identical
to the blocking call on every backend; workspace buffers handed to ``out=``
are pinned while the operation is in flight; and the cost ledger records
exactly the entries the blocking schedule would.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import ReduceOp, run_spmd
from repro.comm.profiler import Profiler, TaskCategory
from repro.comm.cost import CostLedger
from repro.comm.nonblocking import finish
from repro.util.errors import WorkspacePinnedError

BACKENDS = ("lockstep", "thread", "process", "socket")

# 3-4 forked ranks oversubscribe small hosts on purpose: parity, not speed (the
# warning has its own test in tests/comm/test_forked_backends.py).
pytestmark = pytest.mark.filterwarnings("ignore:.*oversubscribe.*:RuntimeWarning")


def _ops_program(comm):
    """Run all three nonblocking ops and their blocking twins; compare bytes."""
    rng = np.random.default_rng(1234 + comm.rank)
    gathered = rng.standard_normal((3, 4))
    reduced = rng.standard_normal((5, 5))
    scattered = rng.standard_normal((comm.size * 2, 3))

    blocking = (
        comm.allgatherv(gathered, axis=0),
        comm.allreduce(reduced),
        comm.reduce_scatter(scattered, axis=0),
    )
    handles = (
        comm.iallgatherv(gathered, axis=0),
        comm.iallreduce(reduced),
        comm.ireduce_scatter(scattered, axis=0),
    )
    results = tuple(h.wait() for h in handles)
    identical = all(
        np.array_equal(b, r) and b.dtype == r.dtype
        for b, r in zip(blocking, results)
    )
    # wait() is idempotent: the same array comes back, no blocking.
    stable = all(h.wait() is r for h, r in zip(handles, results))
    done = all(h.done and h.test() for h in handles)
    comm.shutdown_nonblocking()
    return identical and stable and done


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("p", [1, 3, 4])
def test_nonblocking_matches_blocking(backend, p):
    assert all(run_spmd(p, _ops_program, backend=backend))


@pytest.mark.parametrize("backend", BACKENDS)
def test_out_buffers_and_max_reduction(backend):
    def program(comm):
        rng = np.random.default_rng(7 + comm.rank)
        local = rng.standard_normal((4, 4))
        out = np.empty((4, 4))
        blocking = comm.allreduce(local, op=ReduceOp.MAX)
        result = comm.iallreduce(local, op=ReduceOp.MAX, out=out).wait()
        comm.shutdown_nonblocking()
        return result is out and np.array_equal(blocking, result)

    assert all(run_spmd(4, program, backend=backend))


@pytest.mark.parametrize("backend", BACKENDS)
def test_workspace_pinned_error(backend):
    def program(comm):
        rng = np.random.default_rng(comm.rank)
        local = rng.standard_normal((2, 3))
        buf = comm.workspace.get("gathered", (comm.size * 2, 3))
        handle = comm.iallgatherv(local, axis=0, out=buf)
        try:
            comm.workspace.get("gathered", (comm.size * 2, 3))
        except WorkspacePinnedError as exc:
            error = exc
        else:
            error = None
        handle.wait()
        # Unpinned after wait: the buffer is available again.
        again = comm.workspace.get("gathered", (comm.size * 2, 3))
        comm.shutdown_nonblocking()
        return error, again is buf, comm.rank

    for error, reusable, rank in run_spmd(3, program, backend=backend):
        assert error is not None, "get() on a pinned buffer must raise"
        assert error.buffer_name == "gathered"
        assert error.op == "iallgatherv"
        assert error.rank == rank
        assert isinstance(error.tag, int)
        assert reusable


@pytest.mark.parametrize("backend", BACKENDS)
def test_ledger_identical_to_blocking(backend):
    def program(comm, nonblocking):
        rng = np.random.default_rng(42 + comm.rank)
        a = rng.standard_normal((2, 4))
        b = rng.standard_normal((3, 3))
        c = rng.standard_normal((comm.size, 2))
        ledger = CostLedger()
        comm.attach_ledger(ledger)
        if nonblocking:
            for h in (
                comm.iallgatherv(a, axis=0),
                comm.iallreduce(b),
                comm.ireduce_scatter(c, axis=0),
            ):
                h.wait()
            comm.shutdown_nonblocking()
        else:
            comm.allgatherv(a, axis=0)
            comm.allreduce(b)
            comm.reduce_scatter(c, axis=0)
        return {
            op: (ledger.calls_for(op), ledger.words_for(op))
            for op in ("all_gather", "all_reduce", "reduce_scatter")
        }

    blocking = run_spmd(4, lambda c: program(c, False), backend=backend)
    pipelined = run_spmd(4, lambda c: program(c, True), backend=backend)
    assert blocking == pipelined


@pytest.mark.parametrize("backend", BACKENDS)
def test_finish_books_exposed_and_hidden(backend):
    def program(comm):
        profiler = Profiler()
        local = np.full((3, 3), float(comm.rank))
        result = finish(
            comm.iallreduce(local), profiler, TaskCategory.ALL_REDUCE
        )
        comm.shutdown_nonblocking()
        breakdown = profiler.snapshot()
        return (
            np.array_equal(result, comm.allreduce(local)),
            breakdown.exposed_communication,
            breakdown.hidden_communication,
            breakdown.total,
        )

    for identical, exposed, hidden, total in run_spmd(4, program, backend=backend):
        assert identical
        assert exposed >= 0.0 and hidden >= 0.0
        # HiddenComm never inflates the critical-path total.
        assert total == pytest.approx(exposed)


def test_ensure_nonblocking_modes():
    def program(comm):
        started = comm.ensure_nonblocking()
        again = comm.ensure_nonblocking()
        comm.shutdown_nonblocking()
        comm.shutdown_nonblocking()  # idempotent
        return started, again

    # Helper backends really start a runner; lockstep (and size-1 worlds)
    # complete eagerly and never do.
    assert run_spmd(2, program, backend="thread") == [(True, True)] * 2
    assert run_spmd(2, program, backend="lockstep") == [(False, False)] * 2
    assert run_spmd(1, program, backend="thread") == [(False, False)]


@given(
    interleaving=st.lists(st.sampled_from(["test", "wait"]), min_size=1, max_size=6),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=15, deadline=None)
def test_handle_survives_any_test_wait_interleaving(interleaving, seed):
    """Any sequence of test()/wait() calls yields one stable result."""

    def program(comm):
        rng = np.random.default_rng(seed + comm.rank)
        local = rng.standard_normal((3, 2))
        expected = comm.allreduce(local)
        handle = comm.iallreduce(local)
        result = None
        for call in interleaving:
            if call == "wait":
                result = handle.wait()
            elif handle.test():
                result = handle.wait()  # returns instantly once done
        if result is None:
            result = handle.wait()
        ok = np.array_equal(result, expected) and handle.wait() is result
        comm.shutdown_nonblocking()
        return ok

    assert all(run_spmd(3, program, backend="thread"))


def test_overlapping_handles_on_one_communicator():
    """Several in-flight handles on one comm complete in issue order."""

    def program(comm):
        rng = np.random.default_rng(99 + comm.rank)
        arrays = [rng.standard_normal((2, 2)) for _ in range(5)]
        expected = [comm.allreduce(a) for a in arrays]
        handles = [comm.iallreduce(a) for a in arrays]
        ok = all(
            np.array_equal(h.wait(), e) for h, e in zip(handles, expected)
        )
        comm.shutdown_nonblocking()
        return ok

    assert all(run_spmd(4, program, backend="thread"))
