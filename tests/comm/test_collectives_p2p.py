"""The point-to-point movers must agree with the native collectives."""

import numpy as np
import pytest

from repro.comm import CostLedger, ReduceOp, run_spmd
from repro.comm.collectives import recursive_doubling_allgather, slice_exchange


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8])
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
def test_recursive_doubling_sends_one_message_per_round(p):
    """Fold, ``log2 p2`` pairwise rounds, unfold — to exactly these partners."""
    p2 = 1 << (p.bit_length() - 1)

    def program(comm):
        dests = []
        plain_send = comm.send

        def spying_send(obj, dest, tag=0):
            dests.append(dest)
            plain_send(obj, dest, tag=tag)

        comm.send = spying_send
        recursive_doubling_allgather(comm, float(comm.rank))
        return dests

    for r, dests in enumerate(run_spmd(p, program)):
        if p == 1:
            expected = []
        elif r >= p2:
            expected = [r - p2]  # folded: one send into the leading group
        else:
            expected = [r ^ (1 << t) for t in range(p2.bit_length() - 1)]
            if r + p2 < p:
                expected.append(r + p2)  # unfold the result to the folded rank
        assert dests == expected, r


@pytest.mark.parametrize("root", ["first", "last"])
@pytest.mark.parametrize("p", [1, 2, 3, 5, 6, 7, 8])
def test_recursive_doubling_delivers_one_ranks_payload_to_all(p, root):
    """A value only one rank holds reaches every rank, in its rank's place."""
    root_rank = 0 if root == "first" else p - 1

    def program(comm):
        payload = None
        if comm.rank == root_rank:
            payload = {"grid": (2, 3), "block": np.arange(9, dtype=float).reshape(3, 3)}
        return recursive_doubling_allgather(comm, payload)

    for gathered in run_spmd(p, program):
        assert len(gathered) == p
        assert all(v is None for r, v in enumerate(gathered) if r != root_rank)
        assert gathered[root_rank]["grid"] == (2, 3)
        np.testing.assert_array_equal(
            gathered[root_rank]["block"], np.arange(9, dtype=float).reshape(3, 3)
        )


@pytest.mark.parametrize("op", list(ReduceOp))
@pytest.mark.parametrize("p", [1, 2, 3, 5, 6, 7, 8])
def test_gathered_combine_is_the_native_allreduce(p, op):
    """``allreduce``'s p2p body: every rank's array moved, combined in rank order."""

    def program(comm):
        rng = np.random.default_rng(7 + comm.rank)
        local = rng.random((5, 3)) + 0.5
        mine = op.combine(recursive_doubling_allgather(comm, local))
        native = comm.allreduce(local, op=op)
        return mine.tobytes() == native.tobytes()

    assert all(run_spmd(p, program))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8])
def test_combined_slices_are_the_native_reduce_scatter(p):
    """``reduce_scatter``'s p2p body on the default split of an uneven length."""
    rows = 3 * p + p // 2  # not a multiple of p for p > 1
    base, rem = divmod(rows, p)
    counts = [base + (1 if t < rem else 0) for t in range(p)]

    def program(comm):
        rng = np.random.default_rng(100 + comm.rank)
        local = rng.random((rows, 2))
        mine = ReduceOp.SUM.combine(slice_exchange(comm, local, counts))
        native = comm.reduce_scatter(local)
        return mine.shape == native.shape and mine.tobytes() == native.tobytes()

    assert all(run_spmd(p, program))

@pytest.mark.filterwarnings("ignore:.*oversubscribe:RuntimeWarning")
@pytest.mark.parametrize("backend", ["socket", "thread"], ids=["p2p", "slots"])
def test_max_reduce_scatter(backend):
    p = 4
    locals_ = [np.arange(8, dtype=float) * (r + 1) * (-1) ** r for r in range(p)]
    expected = np.maximum.reduce(locals_)

    def program(comm):
        return comm.reduce_scatter(locals_[comm.rank], op=ReduceOp.MAX)

    results = run_spmd(p, program, backend=backend)
    np.testing.assert_array_equal(np.concatenate(results), expected)


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
        "send_words": ledger.summary().get("send", {}).get("words", 0.0),
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


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7, 8])
def test_ranks_that_own_no_slice_are_sent_nothing(p):
    counts = [4 if t % 2 == 0 else 0 for t in range(p)]  # odd ranks own nothing
    owners = [t for t in range(p) if counts[t]]
    reports = run_spmd(p, _exchange_program, counts, 0, ReduceOp.MIN)
    for rank, report in enumerate(reports):
        assert report["bitwise"]
        assert sorted(report["dests"]) == [t for t in owners if t != rank]
        assert report["send_words"] == 3 * sum(counts[t] for t in owners if t != rank)
