"""The point-to-point movers under :class:`~repro.comm.communicator.Comm`.

A communicator without deposit slots (the ``socket`` and ``mpi`` backends)
moves each collective's contributions with ``send``/``recv`` through the two
functions here.  They only *move* values and do no arithmetic; they are the
point-to-point form of ``Comm``'s two movement primitives:

* :func:`recursive_doubling_allgather` — every rank's value, in rank order
  (``Comm._from_all``);
* :func:`slice_exchange` — the ``p`` slices of my index, the movement half of
  a reduce-scatter (``Comm._own_slices``).

The one body of each collective then applies the same rank-order concatenate
or :func:`~repro.comm.communicator.rank_order_sum` as over slots, so the
result is bitwise equal on every backend.  The §2.3 costs the ledger books for
the optimal algorithms live in :mod:`repro.comm.cost`.

Both functions are SPMD: every rank of ``comm`` must call them collectively.
"""

from __future__ import annotations

from typing import Any, List, Sequence

import numpy as np

from repro.comm.communicator import Comm


def _largest_power_of_two_below(p: int) -> int:
    """Largest power of two <= p."""
    return 1 << (p.bit_length() - 1)


#: Tags for the fold/unfold phases that adapt recursive doubling to arbitrary
#: communicator sizes (MPICH's scheme); distinct from the per-round tags
#: 0..log2(p)-1 of the main phase.
_FOLD_TAG = 1001
_UNFOLD_TAG = 1002
#: Tag of the slice exchange's single round.
_SLICE_TAG = 1003


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
    Summing them with :func:`~repro.comm.communicator.rank_order_sum` adds
    the values, in the order, that a reduce-scatter over deposit slots adds —
    so the result is bitwise equal to it (recursive halving's pairwise partial
    sums are not).

    Each rank sends ``n - counts[r]·row_words`` words — the §2.3 volume
    ``(p-1)/p · n`` for an even split — in ``p - 1`` messages rather than
    recursive halving's ``log p``.  An empty slice is not sent at all.

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
