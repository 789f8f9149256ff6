"""The thread-per-rank SPMD backend.

The paper's algorithms are SPMD programs: every MPI rank runs the same code
on its own block of the data.  :class:`ThreadBackend` reproduces that model in
a single Python process by running one thread per rank.  Ranks exchange numpy
buffers through shared memory slots guarded by reusable barriers, and
point-to-point messages flow through per-(source, destination) queues.

Threads are an adequate stand-in for MPI processes here because

* the heavy numerical kernels (BLAS matmuls, Cholesky factorizations inside
  BPP) release the GIL, so ranks genuinely overlap where it matters, and
* the purpose of the substrate is to execute the *communication structure* of
  Algorithms 2 and 3 faithfully — who owns what, what is sent where — which
  is independent of whether ranks are threads or processes.

For deterministic scheduling, or grids far wider than the machine (hundreds
of simulated ranks), use the ``"lockstep"`` backend instead
(:mod:`repro.comm.backends.lockstep`).
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.comm.backends.base import (
    Backend,
    SharedGroupState,
    _RankFailure,
    raise_first_failure,
)


class ThreadBackend(Backend):
    """Launches an SPMD program on ``n_ranks`` threads and collects results.

    Parameters
    ----------
    n_ranks:
        Number of SPMD ranks (threads) to run.
    name:
        Optional label used in thread names, helpful when debugging.
    """

    def run(self, program: Callable[..., Any], *args: Any, **kwargs: Any) -> List[Any]:
        """Run ``program(comm, *args, **kwargs)`` on every rank.

        Returns the per-rank return values in rank order.  If any rank raises,
        the most informative exception (real failures before peer-abort
        echoes, then lowest rank) is re-raised in the caller after all
        threads have stopped.
        """
        # Imported here to avoid a circular import at module load time.
        from repro.comm.communicator import Comm

        state = SharedGroupState(self.n_ranks)
        results: List[Any] = [None] * self.n_ranks

        def worker(rank: int) -> None:
            comm = Comm(state=state, rank=rank, group_ranks=tuple(range(self.n_ranks)))
            try:
                results[rank] = program(comm, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - must not hang peers
                results[rank] = _RankFailure(rank, exc)
                state.abort()

        self._launch(worker)
        raise_first_failure(results)
        return results
