"""Pluggable SPMD execution backends.

The parallel algorithms are written against
:class:`~repro.comm.communicator.Comm` only; this package supplies the
substrate that actually runs the per-rank programs:

* :mod:`~repro.comm.backends.base` — the :class:`Backend` interface, the
  name → class registry (with per-backend capability flags) and the
  :func:`run_spmd` entry point;
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
  onto real MPI collectives via ``mpi4py``; registers only when ``mpi4py``
  is importable (check :data:`~repro.comm.backends.mpi.MPI4PY_AVAILABLE`),
  otherwise the name resolves to an actionable "unavailable" error.

Select a backend by name anywhere downstream: ``NMFConfig(backend=...)``,
``fit(..., backend=...)`` or the CLI's ``--backend`` flag.
"""

from repro.comm.backends.base import (
    CAPABILITY_FLAGS,
    Backend,
    PeerAbortError,
    SharedGroupState,
    available_backends,
    backend_capabilities,
    get_backend_class,
    make_backend,
    register_backend,
    register_unavailable_backend,
    run_spmd,
)
from repro.comm.backends.lockstep import LockstepBackend
from repro.comm.backends.process import ProcessBackend
from repro.comm.backends.socket import SocketBackend
from repro.comm.backends.thread import ThreadBackend

__all__ = [
    "Backend",
    "CAPABILITY_FLAGS",
    "LockstepBackend",
    "PeerAbortError",
    "ProcessBackend",
    "SharedGroupState",
    "SocketBackend",
    "ThreadBackend",
    "available_backends",
    "backend_capabilities",
    "get_backend_class",
    "make_backend",
    "register_backend",
    "register_unavailable_backend",
    "run_spmd",
]
