"""Block partitioning of index ranges over ranks (paper §4-5).

Every distributed object in the reproduction — the data blocks ``A_ij``, the
factor blocks ``W_i`` / ``H_j`` and their sub-blocks ``(W_i)_j`` / ``(H_j)_i``
— is laid out by the same rule: ``n`` indices are split into ``p`` contiguous
blocks whose sizes differ by at most one, with the remainder spread over the
*first* ``n mod p`` blocks.  This is the layout MPI programs conventionally
use for block distributions, and the one the communicator's
``reduce_scatter`` default ``counts`` reproduce, so a reduce-scatter with no
explicit counts lands each rank exactly on its own block.

The invariants (asserted by ``tests/dist/test_partition.py``):

* ``sum(block_counts(n, p)) == n`` — the blocks cover everything;
* ``block_range(n, p, r)`` for ``r = 0..p-1`` tile ``[0, n)`` in order,
  without gaps or overlap;
* any two counts differ by at most one (load balance of dense data);
* zero-sized blocks are legal (``p > n``), so degenerate grids still work.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.util.errors import PartitionError


def _check_args(n: int, p: int) -> Tuple[int, int]:
    n, p = int(n), int(p)
    if n < 0:
        raise PartitionError(f"cannot partition a negative length, got n={n}")
    if p < 1:
        raise PartitionError(f"number of blocks must be >= 1, got p={p}")
    return n, p


def block_counts(n: int, p: int) -> List[int]:
    """Sizes of the ``p`` blocks of ``n`` indices, remainder spread first.

    >>> block_counts(10, 3)
    [4, 3, 3]
    >>> block_counts(2, 4)
    [1, 1, 0, 0]
    """
    n, p = _check_args(n, p)
    base, rem = divmod(n, p)
    return [base + (1 if r < rem else 0) for r in range(p)]


def block_range(n: int, p: int, rank: int) -> Tuple[int, int]:
    """Half-open index range ``[lo, hi)`` owned by ``rank``.

    >>> [block_range(10, 3, r) for r in range(3)]
    [(0, 4), (4, 7), (7, 10)]
    """
    n, p = _check_args(n, p)
    rank = int(rank)
    if not 0 <= rank < p:
        raise PartitionError(f"rank {rank} out of range for {p} blocks")
    base, rem = divmod(n, p)
    lo = rank * base + min(rank, rem)
    hi = lo + base + (1 if rank < rem else 0)
    return lo, hi
