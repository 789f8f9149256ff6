"""The point-to-point collective algorithms must agree with the native ones."""

import numpy as np
import pytest

from repro.comm import CostLedger, ReduceOp, run_spmd
from repro.comm.collectives import (
    binomial_broadcast,
    recursive_doubling_allgather,
    recursive_doubling_allreduce,
    recursive_halving_reduce_scatter,
    reduce_scatter_allgather_allreduce,
    ring_allgather,
    slice_exchange,
)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 6])
def test_ring_allgather_matches_native(p):
    def program(comm):
        rng = np.random.default_rng(comm.rank)
        local = rng.random((3, 2))
        via_ring = ring_allgather(comm, local)
        via_native = comm.allgather(local)
        for a, b in zip(via_ring, via_native):
            np.testing.assert_array_equal(a, b)
        return True

    assert all(run_spmd(p, program))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7, 8])
def test_recursive_doubling_allgather_matches_native(p):
    def program(comm):
        local = np.arange(4, dtype=float) + 10 * comm.rank
        blocks = recursive_doubling_allgather(comm, local)
        native = comm.allgather(local)
        for a, b in zip(blocks, native):
            np.testing.assert_array_equal(a, b)
        return True

    assert all(run_spmd(p, program))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8])
def test_recursive_halving_reduce_scatter_matches_native(p):
    def program(comm):
        rng = np.random.default_rng(100 + comm.rank)
        local = rng.random((p * 3, 2))
        mine = recursive_halving_reduce_scatter(comm, local)
        native = comm.reduce_scatter(local)
        np.testing.assert_allclose(mine, native, rtol=1e-12)
        return True

    assert all(run_spmd(p, program))


@pytest.mark.parametrize("p", [1, 2, 3, 5, 6, 8])
def test_recursive_doubling_allreduce_matches_native(p):
    def program(comm):
        rng = np.random.default_rng(7 + comm.rank)
        local = rng.random((5, 3))
        out = recursive_doubling_allreduce(comm, local)
        native = comm.allreduce(local)
        np.testing.assert_allclose(out, native, rtol=1e-12)
        return True

    assert all(run_spmd(p, program))


@pytest.mark.parametrize("p", [1, 2, 3, 5, 6, 7, 8])
def test_rabenseifner_allreduce_matches_native(p):
    def program(comm):
        rng = np.random.default_rng(42 + comm.rank)
        local = rng.random((7, 3))  # deliberately not divisible by p
        out = reduce_scatter_allgather_allreduce(comm, local)
        native = comm.allreduce(local)
        np.testing.assert_allclose(out, native, rtol=1e-12)
        return True

    assert all(run_spmd(p, program))


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("root", [0, "last"])
def test_binomial_broadcast_delivers_to_all(p, root):
    root_rank = (p - 1) if root == "last" else 0

    def program(comm):
        payload = np.arange(9, dtype=float).reshape(3, 3) if comm.rank == root_rank else None
        out = binomial_broadcast(comm, payload, root=root_rank)
        np.testing.assert_array_equal(out, np.arange(9, dtype=float).reshape(3, 3))
        return True

    assert all(run_spmd(p, program))


def test_max_reduce_scatter():
    def program(comm):
        local = np.arange(8, dtype=float) * (comm.rank + 1)
        mine = recursive_halving_reduce_scatter(comm, local, op=ReduceOp.MAX)
        native = comm.reduce_scatter(local, op=ReduceOp.MAX)
        np.testing.assert_array_equal(mine, native)
        return True

    assert all(run_spmd(4, program))


# -- slice exchange (reduce-scatter's movement): physical volume == modeled ----

def _split(p, spread, one_hot):
    """Scatter counts for ``p`` ranks: even, uneven, or all on rank ``one_hot``."""
    if one_hot is not None:
        return [5 if t == one_hot else 0 for t in range(p)]
    return [3 + (spread * t) % 4 for t in range(p)]


def _exchange_program(comm, counts, axis, op):
    """Run one slice exchange on an un-silenced comm; report what it sent."""
    rng = np.random.default_rng(40 + comm.rank)
    shape = (sum(counts), 3) if axis == 0 else (3, sum(counts))
    local = rng.standard_normal(shape)
    native = comm.reduce_scatter(local, counts=counts, axis=axis, op=op)

    ledger = CostLedger()
    comm.attach_ledger(ledger)
    dests = []
    plain_send = comm.send

    def spying_send(obj, dest, tag=0):
        dests.append(dest)
        plain_send(obj, dest, tag=tag)

    comm.send = spying_send
    pieces = slice_exchange(comm, local, counts, axis=axis)
    mine = op.combine(pieces)  # the mover only moves; the body combines
    comm.attach_ledger(None)
    return {
        "bitwise": mine.tobytes() == native.tobytes() and mine.shape == native.shape,
        "send_words": ledger.words_for("send"),
        "dests": dests,
    }


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("spread", [0, 1], ids=["even", "uneven"])
@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_slice_exchange_sends_the_modeled_volume_and_matches_native(p, spread, axis):
    counts = _split(p, spread, None)
    reports = run_spmd(p, _exchange_program, counts, axis, ReduceOp.SUM)
    n_words, row_words = 3 * sum(counts), 3
    for rank, report in enumerate(reports):
        assert report["bitwise"]
        # Every word but the rank's own slice leaves it: (p-1)/p · n when even.
        assert report["send_words"] == n_words - counts[rank] * row_words
        assert sorted(report["dests"]) == [t for t in range(p) if t != rank]
    if spread == 0:
        assert reports[0]["send_words"] == pytest.approx((p - 1) / p * n_words)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_one_hot_panel_travels_only_to_its_owner(p, axis):
    owner = p // 2
    counts = _split(p, 0, owner)
    reports = run_spmd(p, _exchange_program, counts, axis, ReduceOp.MAX)
    for rank, report in enumerate(reports):
        assert report["bitwise"]
        if rank == owner:
            assert report["dests"] == [] and report["send_words"] == 0.0
        else:
            assert report["dests"] == [owner]
            assert report["send_words"] == 5 * 3
