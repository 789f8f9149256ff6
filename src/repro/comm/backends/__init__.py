"""The SPMD execution backends, selected by name.

The parallel algorithms are written against
:class:`~repro.comm.communicator.Comm` only; this package supplies the
substrate that actually runs the per-rank programs:

* :mod:`~repro.comm.backends.base` — the :class:`Backend` interface, the
  literal name → (module, class) table and the :func:`run_spmd` entry point;
* :mod:`~repro.comm.backends.thread` — ``"thread"``: one Python thread per
  rank, real overlap wherever BLAS releases the GIL;
* :mod:`~repro.comm.backends.lockstep` — ``"lockstep"``: cooperative
  rank-ordered scheduling with at most one rank running at any instant —
  deterministic, deadlock-diagnosing, and able to simulate hundreds of ranks;
* :mod:`~repro.comm.backends.forked` — the one runtime under both forked
  backends: launcher, TCP-mesh token transport (barriers, point-to-point),
  result collection, dead-rank reaping and teardown;
* :mod:`~repro.comm.backends.process` — ``"process"``: that runtime with
  collective payloads in shared-memory deposit slots — ranks escape the GIL,
  hence the measured-speedup substrate (what ``benchmarks/layered`` times);
* :mod:`~repro.comm.backends.socket` — ``"socket"``: that runtime with
  collective payloads as length-prefixed frames (:mod:`repro.comm.wire`) —
  the wire backend whose collectives genuinely serialize onto a byte stream;
* :mod:`~repro.comm.backends.mpi` — ``"mpi"``: the same interface mapped
  onto real MPI collectives via ``mpi4py``; available only when ``mpi4py``
  is importable (check :data:`~repro.comm.backends.mpi.MPI4PY_AVAILABLE`),
  otherwise the name resolves to an actionable "unavailable" error.

Select a backend by name anywhere downstream: ``NMFConfig(backend=...)``,
``fit(..., backend=...)``, ``run_spmd(backend=...)`` or the CLI's
``--backend`` flag; a lookup imports only the named backend's module.
"""

from repro._lazy import lazy_exports

# Re-exported on first access: ``repro.comm.communicator`` imports
# ``repro.comm.backends.base``, which runs this ``__init__``, and the forked
# backends import the communicator back, so loading them here would be a
# cycle.  The backend table imports a backend's module when it is named.
_EXPORTS = {
    "repro.comm.backends.base": (
        "Backend",
        "PeerAbortError",
        "SharedGroupState",
        "available_backends",
        "get_backend_class",
        "run_spmd",
    ),
    "repro.comm.backends.lockstep": ("LockstepBackend",),
    "repro.comm.backends.process": ("ProcessBackend",),
    "repro.comm.backends.socket": ("SocketBackend",),
    "repro.comm.backends.thread": ("ThreadBackend",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__ = lazy_exports(__name__, _EXPORTS)
