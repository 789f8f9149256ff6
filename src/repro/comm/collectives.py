"""Textbook point-to-point algorithms for the MPI collectives (paper §2.3).

The paper's cost analysis assumes the *optimal* collective algorithms — ring
or recursive-doubling all-gather (``alpha log p + beta (p-1)/p n``),
recursive-halving reduce-scatter (``alpha log p + (beta+gamma) (p-1)/p n``)
and the reduce-scatter + all-gather all-reduce
(``2 alpha log p + (2 beta + gamma)(p-1)/p n``); see Chan et al. and
Thakur et al. (the paper's references [2, 18]).

Where a backend has deposit slots, :class:`~repro.comm.communicator.Comm`
moves a collective's contributions through them; the functions here run the
same collectives using only ``send``/``recv`` so that

* the cost structure the model charges (number of rounds, bytes per round)
  exists in executable form and can be asserted in tests, and
* the substrate has a faithful analogue of what an MPI library actually does
  on a distributed-memory machine.

All functions are SPMD: every rank of ``comm`` must call them collectively.

Two functions here only *move* values and do no arithmetic:
:func:`recursive_doubling_allgather` and :func:`slice_exchange`.  They are the
point-to-point form of :class:`~repro.comm.communicator.Comm`'s two movement
primitives — what a communicator without deposit slots (the ``socket`` and
``mpi`` backends) runs under the one body of each collective, which then applies the same rank-order concatenate or
:meth:`ReduceOp.combine` as over slots.  The other five are the §2.3
algorithms in executable form; only tests call them.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np

from repro.comm.communicator import Comm, ReduceOp
from repro.util.errors import CommunicatorError


def _largest_power_of_two_below(p: int) -> int:
    """Largest power of two <= p."""
    return 1 << (p.bit_length() - 1)


#: Tags for the fold/unfold phases that adapt the power-of-two algorithms to
#: arbitrary communicator sizes (MPICH's scheme); distinct from the per-round
#: tags 0..log2(p)-1 of the main phases.
_FOLD_TAG = 1001
_UNFOLD_TAG = 1002
#: Tag of the slice exchange's single round.
_SLICE_TAG = 1003


def _fold_into_pairs(comm: Comm, work: np.ndarray, op: ReduceOp):
    """MPICH pre-phase adapting a reduction to a non-power-of-two size.

    The first ``2·(p - p2)`` ranks pair up (``p2`` the largest power of two
    ≤ ``p``): each odd rank sends its whole vector to its even partner, which
    reduces it in and represents both ranks through the power-of-two main
    phase.  Returns ``(work, vrank, to_real)`` where

    * ``work is None`` marks a folded (odd) rank that must now wait for the
      ``_UNFOLD_TAG`` message carrying its share of the result,
    * ``vrank`` is the rank within the ``p2``-sized virtual group, and
    * ``to_real`` maps virtual ranks back to communicator ranks.

    For participants the returned ``work`` is a private buffer safe to
    mutate in place; the input itself is never copied on folded ranks
    (``send`` buffers internally) nor on pair carriers (``op.combine``
    allocates the merged result).
    """
    p, r = comm.size, comm.rank
    n_folded = p - _largest_power_of_two_below(p)
    if r < 2 * n_folded and r % 2 == 1:
        comm.send(work, dest=r - 1, tag=_FOLD_TAG)
        work, vrank = None, None
    elif r < 2 * n_folded:
        incoming = np.asarray(comm.recv(source=r + 1, tag=_FOLD_TAG))
        work = op.combine([work, incoming])
        vrank = r // 2
    else:
        work = work.copy()
        vrank = r - n_folded

    def to_real(v: int) -> int:
        return 2 * v if v < n_folded else v + n_folded

    return work, vrank, to_real


def ring_allgather(comm: Comm, array: np.ndarray) -> List[np.ndarray]:
    """All-gather via the bidirectional ring (bandwidth-optimal) algorithm.

    Runs ``p - 1`` rounds; in round ``t`` each rank forwards the block it
    received in round ``t-1`` to its right neighbour.  Total volume per rank
    is ``(p-1)/p * n`` words, matching the cost model (the latency term is
    ``p - 1`` messages rather than ``log p``; MPI libraries switch to
    recursive doubling for small messages, which we mirror in
    :func:`recursive_doubling_allgather`).
    """
    array = np.asarray(array)
    p, r = comm.size, comm.rank
    blocks: List[Optional[np.ndarray]] = [None] * p
    blocks[r] = array
    if p == 1:
        return [array]
    right = (r + 1) % p
    left = (r - 1) % p
    send_idx = r
    for step in range(p - 1):
        # Even ranks send first to avoid a send/recv cycle deadlock on
        # rendezvous semantics; our mailboxes are buffered so either order
        # works, but we keep the canonical structure.
        comm.send(blocks[send_idx], dest=right, tag=step)
        recv_idx = (r - 1 - step) % p
        blocks[recv_idx] = np.asarray(comm.recv(source=left, tag=step))
        send_idx = recv_idx
    assert all(b is not None for b in blocks)
    return [np.asarray(b) for b in blocks]


def recursive_doubling_allgather(comm: Comm, value: Any) -> List[Any]:
    """All-gather via recursive doubling (``log2 p`` rounds of pairwise exchange).

    In round ``t`` each rank exchanges its current collection with the partner
    at distance ``2^t``; after ``log2 p`` rounds everyone has every block.
    A block is carried as is — an array, or any object the mailboxes can
    carry — and returned in rank order.

    Non-power-of-two sizes use MPICH's fold/unfold adaptation: the trailing
    ``p - p2`` ranks (``p2`` the largest power of two ≤ ``p``) first fold
    their block into a partner in the leading ``p2``-rank group, the group
    runs the power-of-two exchange, and the folded ranks receive the finished
    result in a final unfold round — ``log2 p2 + 2`` rounds in total.
    """
    p, r = comm.size, comm.rank
    if p == 1:
        return [value]
    p2 = _largest_power_of_two_below(p)

    if r >= p2:
        # Folded rank: contribute through the partner, then wait for the result.
        comm.send([(r, value)], dest=r - p2, tag=_FOLD_TAG)
        blocks = comm.recv(source=r - p2, tag=_UNFOLD_TAG)
        return [block for _, block in sorted(blocks)]

    owned = {r: value}
    if r + p2 < p:
        owned.update(comm.recv(source=r + p2, tag=_FOLD_TAG))
    distance = 1
    round_idx = 0
    while distance < p2:
        partner = r ^ distance
        comm.send(sorted(owned.items()), dest=partner, tag=round_idx)
        owned.update(comm.recv(source=partner, tag=round_idx))
        distance <<= 1
        round_idx += 1
    if r + p2 < p:
        comm.send(sorted(owned.items()), dest=r + p2, tag=_UNFOLD_TAG)
    return [owned[i] for i in range(p)]


def slice_exchange(
    comm: Comm, array: np.ndarray, counts: Sequence[int], axis: int = 0
) -> List[np.ndarray]:
    """The movement half of a reduce-scatter: every rank's slice of my index.

    Rank ``r`` sends rank ``t`` only slice ``t`` of its input (the
    ``counts[t]`` entries along ``axis`` that ``t`` will own) and returns the
    ``p`` slices of its own index in rank order, its own a view of ``array``.
    Reducing them with :meth:`ReduceOp.combine` reduces the values, in the
    order, that a reduce-scatter over deposit slots reduces — so the result
    is bitwise equal to it (recursive halving's pairwise partial sums are
    not).

    Each rank sends ``n - counts[r]·row_words`` words — the §2.3 volume
    ``(p-1)/p · n`` for an even split — in ``p - 1`` messages rather than
    recursive halving's ``log p``.  An empty slice is not sent at all, so a
    one-hot ``counts`` (one panel of :func:`repro.comm.panels.
    stream_reduce_scatter`) travels only to the rank that owns it.

    ``counts`` must already be validated (one entry per rank, summing to the
    axis length).
    """
    array = np.asarray(array)
    p, r = comm.size, comm.rank
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(int)

    def piece(t: int) -> np.ndarray:
        index = [slice(None)] * array.ndim
        index[axis] = slice(offsets[t], offsets[t + 1])
        return array[tuple(index)]

    for step in range(1, p):  # staggered, so no rank is everyone's first target
        t = (r + step) % p
        if counts[t]:
            comm.send(piece(t), dest=t, tag=_SLICE_TAG)
    if not counts[r]:  # nobody sent this rank anything: p empty slices
        return [piece(r)] * p
    return [
        piece(r) if s == r else comm.recv(source=s, tag=_SLICE_TAG) for s in range(p)
    ]


def recursive_halving_reduce_scatter(
    comm: Comm,
    array: np.ndarray,
    counts: Optional[Sequence[int]] = None,
    op: ReduceOp = ReduceOp.SUM,
) -> np.ndarray:
    """Reduce-scatter via recursive halving (``log2 p`` rounds of half-exchange).

    In round ``t`` each rank exchanges half of its active range with the
    partner at distance ``p / 2^(t+1)`` and reduces the received half into its
    own; after ``log2 p`` rounds each rank holds the fully reduced block it is
    responsible for.  The volume per rank is ``(p-1)/p * n`` words.

    Non-power-of-two sizes use MPICH's fold/unfold adaptation: the first
    ``2·(p - p2)`` ranks pair up (``p2`` the largest power of two ≤ ``p``);
    each odd rank folds its whole vector into its even partner, which then
    represents the merged block of both ranks through the power-of-two main
    phase and finally unfolds the odd partner's block back to it.
    """
    array = np.asarray(array, dtype=np.float64)
    p, r = comm.size, comm.rank
    length = array.shape[0]
    if counts is None:
        base, rem = divmod(length, p)
        counts = [base + (1 if i < rem else 0) for i in range(p)]
    counts = list(counts)
    if len(counts) != p or sum(counts) != length:
        raise CommunicatorError("counts must have one entry per rank and sum to the axis length")
    if p == 1:
        return array.copy()

    p2 = _largest_power_of_two_below(p)
    n_folded = p - p2  # number of (even, odd) pairs in the fold phase

    work, vrank, to_real = _fold_into_pairs(comm, array, op)
    if work is None:
        # Folded rank: the even partner carries the contribution and sends
        # the finished block back.
        return np.asarray(comm.recv(source=r - 1, tag=_UNFOLD_TAG)).copy()

    # Virtual block layout: pair blocks are merged, tail blocks unchanged.
    vcounts = [counts[2 * i] + counts[2 * i + 1] for i in range(n_folded)]
    vcounts += counts[2 * n_folded:]
    offsets = np.concatenate(([0], np.cumsum(vcounts))).astype(int)

    # Active range of *virtual block indices* this rank is still responsible for.
    lo_blk, hi_blk = 0, p2
    distance = p2 // 2
    round_idx = 0
    while distance >= 1:
        mid_blk = lo_blk + (hi_blk - lo_blk) // 2
        vpartner = vrank ^ distance
        if vrank < vpartner:
            keep_lo, keep_hi = lo_blk, mid_blk
            send_lo, send_hi = mid_blk, hi_blk
        else:
            keep_lo, keep_hi = mid_blk, hi_blk
            send_lo, send_hi = lo_blk, mid_blk
        send_slice = slice(offsets[send_lo], offsets[send_hi])
        keep_slice = slice(offsets[keep_lo], offsets[keep_hi])
        comm.send(work[send_slice], dest=to_real(vpartner), tag=round_idx)
        incoming = np.asarray(comm.recv(source=to_real(vpartner), tag=round_idx))
        work[keep_slice] = op.combine([work[keep_slice], incoming])
        lo_blk, hi_blk = keep_lo, keep_hi
        distance //= 2
        round_idx += 1
    assert hi_blk - lo_blk == 1 and lo_blk == vrank
    block = work[offsets[vrank]: offsets[vrank + 1]]
    if vrank < n_folded:
        # The merged block covers real ranks 2·vrank (this rank) and
        # 2·vrank + 1 (the folded partner); unfold the partner's share.
        comm.send(block[counts[r]:], dest=r + 1, tag=_UNFOLD_TAG)
        return block[: counts[r]].copy()
    return block.copy()


def recursive_doubling_allreduce(
    comm: Comm, array: np.ndarray, op: ReduceOp = ReduceOp.SUM
) -> np.ndarray:
    """All-reduce via recursive doubling (``log2 p`` rounds of pairwise exchange).

    Non-power-of-two sizes use the same fold/unfold adaptation as
    :func:`recursive_halving_reduce_scatter`: odd members of the first
    ``2·(p - p2)`` ranks fold into their even partner, the ``p2``-rank group
    runs the power-of-two exchange, and the folded ranks receive the finished
    result back.
    """
    array = np.asarray(array, dtype=np.float64)
    p, r = comm.size, comm.rank
    if p == 1:
        return array.copy()

    p2 = _largest_power_of_two_below(p)
    n_folded = p - p2

    work, vrank, to_real = _fold_into_pairs(comm, array, op)
    if work is None:
        return np.asarray(comm.recv(source=r - 1, tag=_UNFOLD_TAG)).copy()

    distance = 1
    round_idx = 0
    while distance < p2:
        vpartner = vrank ^ distance
        comm.send(work, dest=to_real(vpartner), tag=round_idx)
        incoming = np.asarray(comm.recv(source=to_real(vpartner), tag=round_idx))
        # Reduce in a canonical (lower-rank-first) order so every rank computes
        # bitwise-identical results regardless of its position.
        if vrank < vpartner:
            work = op.combine([work, incoming])
        else:
            work = op.combine([incoming, work])
        distance <<= 1
        round_idx += 1
    if vrank < n_folded:
        comm.send(work, dest=r + 1, tag=_UNFOLD_TAG)
    return work


def reduce_scatter_allgather_allreduce(
    comm: Comm, array: np.ndarray, op: ReduceOp = ReduceOp.SUM
) -> np.ndarray:
    """All-reduce composed of reduce-scatter + all-gather (Rabenseifner's algorithm).

    This is the large-message algorithm whose cost,
    ``2 alpha log p + (2 beta + gamma)(p-1)/p n``, is exactly the all-reduce
    expression quoted in §2.3 of the paper.  Works for any communicator size:
    the reduce-scatter stage handles non-powers-of-two via fold/unfold and
    the all-gather stage is a ring.
    """
    array = np.asarray(array, dtype=np.float64)
    p = comm.size
    if p == 1:
        return array.copy()
    original_shape = array.shape
    flat = array.reshape(-1)
    # Pad so the vector splits evenly into p blocks (padding is reduced too,
    # then discarded; this only affects constants, not the asymptotic cost).
    base, rem = divmod(flat.size, p)
    padded_len = flat.size if rem == 0 else (base + 1) * p
    padded = np.zeros(padded_len, dtype=np.float64)
    padded[: flat.size] = flat
    counts = [padded_len // p] * p
    my_block = recursive_halving_reduce_scatter(comm, padded, counts=counts, op=op)
    blocks = ring_allgather(comm, my_block)
    full = np.concatenate(blocks)[: flat.size]
    return full.reshape(original_shape)


def binomial_broadcast(comm: Comm, array: Optional[np.ndarray], root: int = 0) -> np.ndarray:
    """Broadcast via a binomial tree (``log2 p`` rounds, MPICH's small-message scheme).

    Only the root needs to supply ``array``; every rank returns the broadcast
    value.  Works for any communicator size (not just powers of two).
    """
    p, r = comm.size, comm.rank
    if p == 1:
        assert array is not None
        return np.asarray(array)
    # Work in a rotated rank space where the root is virtual rank 0.
    vrank = (r - root) % p
    data = np.asarray(array) if vrank == 0 else None

    # Phase 1: a non-root rank receives from the parent identified by clearing
    # its lowest set bit (in virtual rank space).
    mask = 1
    while mask < p:
        if vrank & mask:
            parent_v = vrank ^ mask
            parent = (parent_v + root) % p
            data = np.asarray(comm.recv(source=parent, tag=0))
            break
        mask <<= 1
    # Phase 2: forward to children at increasing distances below the bit where
    # phase 1 stopped.
    mask >>= 1
    while mask > 0:
        child_v = vrank | mask
        if child_v != vrank and child_v < p:
            child = (child_v + root) % p
            assert data is not None
            comm.send(data, dest=child, tag=0)
        mask >>= 1
    assert data is not None
    return data
