"""MPI-like SPMD communication substrate.

The paper's implementation is C++/MPI.  This package provides the equivalent
substrate in pure Python:

* :mod:`~repro.comm.backends` supplies the execution backends, one table
  keyed by name: ``"thread"`` (one Python thread per rank, real overlap
  wherever BLAS releases the GIL), ``"lockstep"`` (deterministic rank-ordered
  cooperative scheduling that can simulate hundreds of ranks and diagnoses
  deadlocks exactly), ``"process"`` and ``"socket"`` (one forked OS process
  per rank; collective payloads in shared memory, or as frames on a TCP
  mesh) and ``"mpi"`` (an ``mpirun`` job via ``mpi4py``, when installed);
* :class:`~repro.comm.communicator.Comm` exposes the MPI operations the
  paper's algorithms use — ``allgatherv``, ``reduce_scatter``, ``allreduce``
  (§2.3; every reduction is a sum), ``send``/``recv``, ``barrier``,
  ``split`` — with numpy-buffer semantics (mirroring mpi4py's uppercase,
  buffer-based API), including MPI-style caller-provided receive buffers
  (``out=``) backed by the reusable
  :class:`~repro.comm.workspace.CollectiveWorkspace`.  Each collective is
  written once, as *movement* plus a *rank-order combine*; a backend only
  decides how values move (deposit slots, or point-to-point);
* :mod:`~repro.comm.collectives` holds the two byte movers under ``Comm``'s
  point-to-point movement: recursive doubling all-gather (any communicator
  size, via MPICH's fold/unfold scheme) and the slice exchange;
* :mod:`~repro.comm.cost` implements the alpha-beta-gamma model whose §2.3
  expressions price the optimal collective algorithms, and a per-rank ledger
  of words/messages/flops;
* :mod:`~repro.comm.grid` provides the ``pr × pc`` processor grid with row and
  column sub-communicators used by Algorithm 3;
* :mod:`~repro.comm.profiler` accumulates wall-clock time into the six task
  categories of §6.3 (MM, NLS, Gram, All-Gather, Reduce-Scatter, All-Reduce).
"""

from repro._lazy import lazy_exports

# Re-exported on first access: the profiler (all a saved result needs) loads
# without the backends, the communicator or multiprocessing.
_EXPORTS = {
    "repro.comm.backends": (
        "Backend",
        "LockstepBackend",
        "ThreadBackend",
        "available_backends",
        "run_spmd",
    ),
    "repro.comm.communicator": ("Comm",),
    "repro.comm.cost": ("AlphaBetaGamma", "CostLedger", "CollectiveCost", "EDISON"),
    "repro.comm.workspace": ("CollectiveWorkspace",),
    "repro.comm.grid": ("ProcessGrid", "choose_grid"),
    "repro.comm.profiler": ("TaskCategory", "Profiler", "TimeBreakdown"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__ = lazy_exports(__name__, _EXPORTS)
