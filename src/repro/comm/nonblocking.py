"""Collective handles: the MPI request-object surface, completed at issue.

:meth:`Comm.iallgatherv`, :meth:`Comm.iallreduce` and
:meth:`Comm.ireduce_scatter` return a :class:`CommHandle`, the object the
Algorithm 2/3 loops are written against (see :mod:`repro.core.spmd_loop`):
a collective is *issued* at the earliest program point its input exists and
*claimed* with ``wait()`` where its result is first needed.

There is one completion mode, on every backend: **the handle is complete
when the issuing call returns**.  The blocking collective runs at issue on
the issuing communicator, books its own ledger entry there, and its seconds
are the handle's ``exposed_seconds``.  Nothing is ever in flight, so there is
no helper thread, no shadow communicator, no input snapshot and no buffer
to protect from reuse.

Why not progress collectives in the background — the paper's Algorithm 3 is
bulk-synchronous (its §4.3/§5 cost is computation *plus* communication), and
a helper-thread engine was measured four ways on this repository's hosts
without a win.  Over shared memory (``process``) a collective is the rank's
own copy-and-add between two microsecond barriers: there is no network to
progress.  Over TCP (``socket``) and in-process queues (``thread``) the
helper, its snapshot of the input and its second pass over every factor
block run on a CPU that the *other* rank needs (one rank per core, SMT
siblings): alternating fits on the ``sparse_wire`` shape gave ``socket``
8.63 → 9.34 it/s and ``thread`` 7.67 → 8.90 it/s with the helper off.
``lockstep`` must stay a single-runnable-rank baton pass and ``mpi`` would
need ``MPI_THREAD_MULTIPLE``.

One modeled collective may be carried by several physical handles: the
panel-streamed reduce-scatter (:mod:`repro.comm.panels`) issues one
``ireduce_scatter(record=False)`` per MM panel — suppressing the per-handle
ledger entry — and books a single :meth:`Comm.record_collective` with the
monolithic call's word count, so the ledger shows one reduce-scatter of the
full input.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.comm.profiler import Profiler, TaskCategory

__all__ = ["CommHandle", "finish"]


class CommHandle:
    """Request handle of a collective that completed when it was issued.

    Mirrors the MPI request object: ``wait()`` returns the result array
    (idempotent — every call returns the same array, none blocks) and
    ``test()`` / ``done`` report completion, which is immediate.  A collective
    that fails raises from the issuing call; no handle is created for it.

    ``exposed_seconds`` is the time the issuing call spent in the collective
    (all of it on the caller's critical path); :func:`finish` books it into a
    :class:`Profiler`.
    """

    def __init__(self, op: str, result: Any, seconds: float):
        self.op = op
        self._result = result
        self.exposed_seconds = seconds

    @property
    def done(self) -> bool:
        """Whether the operation has completed (always, since issue)."""
        return True

    def test(self) -> bool:
        return True

    def wait(self) -> Any:
        return self._result

    def __repr__(self) -> str:
        return f"{type(self).__name__}(op={self.op!r}, done)"


def finish(
    handle: CommHandle,
    profiler: Optional[Profiler] = None,
    category: Optional[TaskCategory] = None,
) -> Any:
    """Claim ``handle`` and book its seconds into ``profiler`` under ``category``.

    ``category`` is the classic collective category the blocking call would
    be timed under.  Call once per handle.
    """
    result = handle.wait()
    if profiler is not None and category is not None:
        profiler.add(category, handle.exposed_seconds)
    return result
