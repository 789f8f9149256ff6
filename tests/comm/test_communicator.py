"""Unit tests for the SPMD communicator's collectives.

Each collective has one body over two movements, so the movement is a test
input: ``"thread"`` moves through deposit slots, ``"socket"`` point-to-point.
"""

import numpy as np
import pytest

from repro.comm import ReduceOp, run_spmd
from repro.comm.cost import CostLedger
from repro.util.errors import CommunicatorError

MOVEMENTS = ("thread", "socket")

# 3-4 forked ranks oversubscribe small hosts on purpose: parity, not speed.
pytestmark = pytest.mark.filterwarnings("ignore:.*oversubscribe.*:RuntimeWarning")


def movements(*sizes):
    """``backend, p`` cells: every size over slots, the forked p2p cells up to p = 4.

    The slot cells keep the bare ``p`` as their id (what they were called
    before the movement became an input).
    """
    cells = [pytest.param("thread", p, id=str(p)) for p in sizes]
    cells += [pytest.param("socket", p, id=f"socket-{p}") for p in sizes if 1 < p <= 4]
    return pytest.mark.parametrize("backend,p", cells)


@movements(1, 2, 3, 4, 7)
def test_allgather_returns_all_blocks_in_rank_order(backend, p):
    def program(comm):
        local = np.full((2, 3), float(comm.rank))
        gathered = comm.allgather(local)
        assert len(gathered) == comm.size
        for r, block in enumerate(gathered):
            np.testing.assert_array_equal(block, np.full((2, 3), float(r)))
        return True

    assert all(run_spmd(p, program, backend=backend))


@movements(1, 2, 4, 5)
def test_allgatherv_concatenates_unequal_blocks(backend, p):
    def program(comm):
        rows = comm.rank + 1
        local = np.arange(rows * 2, dtype=float).reshape(rows, 2) + 100 * comm.rank
        full = comm.allgatherv(local, axis=0)
        expected = np.concatenate(
            [np.arange((r + 1) * 2, dtype=float).reshape(r + 1, 2) + 100 * r for r in range(comm.size)],
            axis=0,
        )
        np.testing.assert_array_equal(full, expected)
        return True

    assert all(run_spmd(p, program, backend=backend))


@movements(1, 2, 3, 6)
def test_allreduce_sum_matches_numpy(backend, p):
    def program(comm):
        rng = np.random.default_rng(comm.rank)
        local = rng.standard_normal((4, 4))
        total = comm.allreduce(local)
        expected = sum(np.random.default_rng(r).standard_normal((4, 4)) for r in range(comm.size))
        np.testing.assert_allclose(total, expected, rtol=1e-12)
        return True

    assert all(run_spmd(p, program, backend=backend))


@pytest.mark.parametrize("op,npfunc", [
    (ReduceOp.MAX, np.maximum),
    (ReduceOp.MIN, np.minimum),
])
def test_allreduce_max_min(op, npfunc):
    def program(comm):
        local = np.array([float(comm.rank), float(-comm.rank)])
        out = comm.allreduce(local, op=op)
        contributions = [np.array([float(r), float(-r)]) for r in range(comm.size)]
        expected = contributions[0]
        for c in contributions[1:]:
            expected = npfunc(expected, c)
        np.testing.assert_array_equal(out, expected)
        return True

    for backend in MOVEMENTS:
        assert all(run_spmd(4, program, backend=backend))


@movements(1, 2, 3, 4)
def test_reduce_scatter_even_split(backend, p):
    def program(comm):
        local = np.full((comm.size * 2, 3), float(comm.rank + 1))
        mine = comm.reduce_scatter(local)
        total = sum(r + 1 for r in range(comm.size))
        assert mine.shape == (2, 3)
        np.testing.assert_array_equal(mine, np.full((2, 3), float(total)))
        return True

    assert all(run_spmd(p, program, backend=backend))


def test_reduce_scatter_uneven_counts():
    counts = [3, 1, 2, 4]

    def program(comm):
        local = np.arange(10, dtype=float) * (comm.rank + 1)
        mine = comm.reduce_scatter(local, counts=counts)
        factor = sum(r + 1 for r in range(comm.size))
        offsets = np.concatenate(([0], np.cumsum(counts)))
        lo, hi = offsets[comm.rank], offsets[comm.rank + 1]
        np.testing.assert_allclose(mine, np.arange(10, dtype=float)[lo:hi] * factor)
        return True

    for backend in MOVEMENTS:
        assert all(run_spmd(4, program, backend=backend))


def test_reduce_scatter_rejects_bad_counts():
    def program(comm):
        local = np.zeros(10)
        with pytest.raises(CommunicatorError):
            comm.reduce_scatter(local, counts=[5, 6])
        # Rejected before any movement: the communicator is still usable.
        return comm.allreduce_scalar(1.0) == comm.size

    for backend in MOVEMENTS:
        assert all(run_spmd(2, program, backend=backend))


def test_send_recv_pairwise_exchange():
    def program(comm):
        partner = comm.size - 1 - comm.rank
        payload = np.full(4, float(comm.rank))
        if partner != comm.rank:
            comm.send(payload, dest=partner, tag=7)
            got = comm.recv(source=partner, tag=7)
            np.testing.assert_array_equal(got, np.full(4, float(partner)))
        return True

    assert all(run_spmd(4, program))


def test_send_to_self_raises():
    def program(comm):
        with pytest.raises(CommunicatorError):
            comm.send(np.zeros(1), dest=comm.rank)
        return True

    assert all(run_spmd(2, program))


def test_split_into_rows_and_columns():
    pr, pc = 2, 3

    def program(comm):
        i, j = divmod(comm.rank, pc)
        row_comm = comm.split(color=i, key=j)
        col_comm = comm.split(color=j, key=i)
        assert row_comm.size == pc and row_comm.rank == j
        assert col_comm.size == pr and col_comm.rank == i
        # Collectives on the sub-communicators see only group members.
        row_vals = row_comm.allgather(np.array([float(comm.rank)]))
        assert [int(v[0]) for v in row_vals] == [i * pc + jj for jj in range(pc)]
        col_vals = col_comm.allgather(np.array([float(comm.rank)]))
        assert [int(v[0]) for v in col_vals] == [ii * pc + j for ii in range(pr)]
        return True

    assert all(run_spmd(pr * pc, program))


@pytest.mark.parametrize("backend", ["thread", "lockstep", "socket"])
def test_allgather_object_carries_any_value_as_is(backend):
    """The set-up collective of ``split`` and ``DistMatrix2D``: a tuple, a
    dict and ``None`` arrive unchanged on every movement (p = 3 takes the
    point-to-point mover through its fold/unfold rounds)."""
    values = [("a", 1), {"rank": 1, "blocks": [1, 2]}, None]

    def program(comm):
        backwards = comm.split(color=0, key=comm.size - comm.rank)
        mine = values[comm.rank]
        return comm.allgather_object(mine), backwards.allgather_object(mine)

    for gathered, gathered_backwards in run_spmd(3, program, backend=backend):
        assert gathered == values
        assert gathered_backwards == values[::-1]


def test_rank_exception_propagates_to_caller():
    def program(comm):
        if comm.rank == 1:
            raise ValueError("boom on rank 1")
        comm.barrier()
        return True

    with pytest.raises((ValueError, CommunicatorError)):
        run_spmd(3, program)


def test_allreduce_deterministic_across_ranks():
    """All ranks must observe bitwise-identical reduction results."""

    def program(comm):
        rng = np.random.default_rng(1234 + comm.rank)
        local = rng.standard_normal((8, 8))
        out = comm.allreduce(local)
        digests = comm.allgather_object(out.tobytes())
        assert all(d == digests[0] for d in digests)
        return True

    assert all(run_spmd(4, program))


def test_ledger_records_collective_volume():
    def program(comm):
        ledger = CostLedger()
        comm.attach_ledger(ledger)
        comm.allreduce(np.zeros((5, 5)))
        comm.allgather(np.zeros(10))
        comm.reduce_scatter(np.zeros(8))
        return ledger

    # The modeled §2.3 entry only, however the bytes moved: the physical
    # sends of the point-to-point movement never reach the ledger.
    for backend in MOVEMENTS:
        for ledger in run_spmd(4, program, backend=backend):
            summary = ledger.summary()
            assert set(summary) == {"all_reduce", "all_gather", "reduce_scatter"}
            assert all(entry["calls"] == 1 for entry in summary.values())
            # all-reduce volume: 2 * (p-1)/p * n = 2 * 3/4 * 25
            assert summary["all_reduce"]["words"] == pytest.approx(2 * 0.75 * 25)
            assert summary["reduce_scatter"]["words"] == pytest.approx(0.75 * 8)


def test_allreduce_scalar():
    def program(comm):
        return comm.allreduce_scalar(float(comm.rank + 1))

    results = run_spmd(4, program)
    assert results == [10.0] * 4


# -- the copies the one path does not make --------------------------------------

def _two_pass_combine(op, arrays, out=None):
    """``ReduceOp.combine`` as it was: copy the first, then update in place."""
    stack = [np.asarray(a) for a in arrays]
    if out is None:
        out = stack[0].astype(np.result_type(*stack), copy=True)
    else:
        np.copyto(out, stack[0])
    for a in stack[1:]:
        if op is ReduceOp.SUM:
            out += a
        elif op is ReduceOp.MAX:
            np.maximum(out, a, out=out)
        elif op is ReduceOp.MIN:
            np.minimum(out, a, out=out)
        else:
            out *= a
    return out


@pytest.mark.parametrize("op", list(ReduceOp))
@pytest.mark.parametrize("n_arrays", [1, 2, 3, 5])
@pytest.mark.parametrize(
    "dtypes, out_dtype",
    [
        (("f8",), None), (("f8",), "f8"),
        (("f4", "f8"), None),   # mixed: reduced in the wider type
        (("f4",), "f8"),        # widened by out: reduced in out's type, not the inputs'
        (("i4", "i8"), "f8"),
        (("i4",), None),
    ],
)
def test_one_pass_combine_equals_copy_then_update(op, n_arrays, dtypes, out_dtype):
    rng = np.random.default_rng(n_arrays)
    arrays = [
        (rng.standard_normal((3, 5)) * 7).astype(dtypes[i % len(dtypes)])
        for i in range(n_arrays)
    ]
    expected = _two_pass_combine(
        op, arrays, None if out_dtype is None else np.empty((3, 5), out_dtype)
    )
    out = None if out_dtype is None else np.empty((3, 5), out_dtype)
    got = op.combine(arrays, out=out)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    assert out is None or got is out
    assert all(got is not a for a in arrays)


@pytest.mark.parametrize("backend", ["thread", "lockstep", "socket", "process"])
def test_size_one_collectives_hand_back_their_input(backend):
    """Nothing moves on a size-1 communicator, so nothing is copied: the
    result is the input array, ``out`` is validated and left untouched, and
    the ledger stays empty."""

    def program(comm):
        ledger = CostLedger()
        comm.attach_ledger(ledger)
        x = np.arange(12.0).reshape(3, 4)
        out = np.full((3, 4), -1.0)
        results = (
            comm.allgatherv(x, axis=1, out=out),
            comm.allgatherv(x, axis=0),
            comm.allreduce(x, out=out),
            comm.allreduce(x, op=ReduceOp.MAX),
            comm.reduce_scatter(x, counts=[3], out=out),
            comm.reduce_scatter(x, axis=1),
            comm.iallgatherv(x, out=out).wait(),
            comm.reduce_scatter(x, out=out),
        )
        return all(r is x for r in results), bool((out == -1.0).all()), ledger.summary()

    assert run_spmd(1, program, backend=backend) == [(True, True, {})]


def test_size_one_collectives_keep_every_validation():
    def program(comm):
        x = np.ones((3, 4))
        bad_calls = {
            "share memory": [
                lambda: comm.allreduce(x, out=x),
                lambda: comm.allgatherv(x, out=x[:, :]),
                lambda: comm.reduce_scatter(x, out=x),
            ],
            "shape": [
                lambda: comm.allreduce(x, out=np.empty((4, 3))),
                lambda: comm.allgatherv(x, axis=0, out=np.empty((4, 4))),   # axis length
                lambda: comm.allgatherv(x, axis=0, out=np.empty((3, 5))),   # other dimension
                lambda: comm.reduce_scatter(x, out=np.empty((2, 4))),
            ],
            "dtype": [
                lambda: comm.allreduce(x, out=np.empty((3, 4), np.float32)),
                lambda: comm.allgatherv(x, out=np.empty((3, 4), np.int64)),
            ],
            "counts": [
                lambda: comm.reduce_scatter(x, counts=[2]),
                lambda: comm.reduce_scatter(x, counts=[2, 1]),
            ],
        }
        for message, calls in bad_calls.items():
            for call in calls:
                with pytest.raises(CommunicatorError, match=message):
                    call()
        return True

    assert run_spmd(1, program, backend="thread") == [True]
