"""The MPI wire backend: the Backend ABC mapped onto real MPI via ``mpi4py``.

Import-guarded like the numba kernels (:mod:`repro.nls.kernels_numba`): when
``mpi4py`` is not installed the module still imports cleanly, sets
:data:`MPI4PY_AVAILABLE` to ``False`` and registers the name as
*unavailable* — ``--backend mpi`` then fails with an actionable message
instead of a generic "unknown backend", and ``available_backends()`` simply
omits it.

Unlike every other backend, MPI ranks are not launched *by* this process:
the job is started externally (``mpirun -n 4 python program.py``) and every
rank executes the whole script.  :meth:`MPIBackend.run` therefore checks
that ``MPI.COMM_WORLD`` matches the requested ``n_ranks`` and raises a
:class:`~repro.util.errors.CommunicatorError` telling the user the exact
``mpirun`` invocation otherwise.  Each rank returns the full rank-ordered
result list (collected with an MPI allgather), so calling code behaves
identically on every rank.

Byte-identity: data-movement collectives (allgather, bcast, gather,
scatter) map directly onto ``mpi4py``'s pickle-based collectives — they
move bytes exactly.  Reductions deliberately do **not** use ``MPI.SUM``:
MPI's internal reduction-tree order differs from the native backends'
rank-order combine, so :class:`MPIComm` inherits the socket backend's
move-bytes-then-combine-in-rank-order implementations — ``allreduce`` and
``reduce`` through the :meth:`~repro.comm.backends.socket.SocketComm._gather_all`
hook (re-routed through ``mpicomm.allgather``), ``reduce_scatter`` as the
point-to-point slice exchange over the mailboxes below — keeping factors
byte-identical to thread/process/lockstep/socket.

Nonblocking collectives run in **eager** mode (the lockstep precedent):
``CommHandle`` completes at issue time, because helper-thread progress would
require ``MPI_THREAD_MULTIPLE``, which many MPI builds do not provide.  The
capability flags and ``DEFAULT_OVERLAP_EFFICIENCY["mpi"] = 0.0`` declare
exactly that degradation.
"""

from __future__ import annotations

import queue
import time
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.comm.backends.base import (
    Backend,
    SharedGroupState,
    register_backend,
    register_unavailable_backend,
)
from repro.comm.backends.socket import SocketComm, _WireSlots
from repro.comm.communicator import Comm, _nwords
from repro.util.errors import CommunicatorError

try:  # pragma: no cover - exercised by the CI mpi leg
    from mpi4py import MPI

    MPI4PY_AVAILABLE = True
except ImportError:  # pragma: no cover - default environment
    MPI = None
    MPI4PY_AVAILABLE = False

#: MPI tag carrying the point-to-point mailbox traffic.  The repro-level
#: message tag travels inside the payload tuple, exactly as the in-process
#: mailboxes carry ``(tag, payload)``.
_P2P_TAG = 7001
#: Seconds between Iprobe polls while a mailbox get waits for a message.
_POLL_INTERVAL = 0.0005


class _MPIMailbox:
    """FIFO (src → dst) channel over MPI point-to-point messages."""

    #: ``isend`` pickles the item before it returns, so senders need not copy.
    serializes = True

    def __init__(self, mpicomm, src: int, dst: int):
        self._mpicomm = mpicomm
        self._src = src
        self._dst = dst
        self._in_flight: List[Any] = []

    def put(self, item: Any) -> None:
        # isend, not send: Comm.send is buffered, and the exchanges of
        # repro.comm.collectives have both partners send before they receive —
        # a blocking send would deadlock on MPI's rendezvous path.  A request
        # owns its pickled buffer, so it is kept until it has completed.
        self._in_flight = [req for req in self._in_flight if not req.Test()]
        self._in_flight.append(
            self._mpicomm.isend(item, dest=self._dst, tag=_P2P_TAG)
        )

    def get(self, timeout: Optional[float] = None) -> Any:
        effective = 60.0 if timeout is None else timeout
        deadline = time.monotonic() + effective
        # mpi4py has no timed recv; poll so Comm.recv's timeout diagnostics
        # (queue.Empty -> CommunicatorError naming the source) keep working.
        while not self._mpicomm.Iprobe(source=self._src, tag=_P2P_TAG):
            if time.monotonic() >= deadline:
                raise queue.Empty
            time.sleep(_POLL_INTERVAL)
        return self._mpicomm.recv(source=self._src, tag=_P2P_TAG)


class MPIGroupState(SharedGroupState):
    """Group state backed by one (duplicated) mpi4py communicator."""

    #: Eager nonblocking completion: helper threads would need
    #: MPI_THREAD_MULTIPLE, which is not guaranteed (see module docstring).
    nonblocking_mode = "eager"

    def __init__(self, mpicomm):
        super().__init__(mpicomm.Get_size())
        self.mpicomm = mpicomm
        self.slots = _WireSlots(self.size)

    def _new_mailbox(self, src: int, dst: int) -> _MPIMailbox:
        return _MPIMailbox(self.mpicomm, src, dst)

    def make_subgroup(self, size, members=None, reg_key=None):
        raise CommunicatorError(
            "MPI sub-groups are created with MPI_Comm_split; MPIComm.split "
            "must be used instead of the registry-based make_subgroup path"
        )

    def wait(self) -> None:
        self.mpicomm.Barrier()

    def abort(self) -> None:  # pragma: no cover - only reached on rank failure
        self.mpicomm.Abort(1)


class MPIComm(SocketComm):
    """A :class:`~repro.comm.communicator.Comm` over real MPI collectives.

    Data movement uses ``mpi4py`` collectives directly; reductions inherit
    the socket backend's move-then-rank-order-combine (the :meth:`_gather_all`
    hook, and the slice-exchange ``reduce_scatter`` over the MPI mailboxes)
    for byte identity with every other backend.
    """

    def _make_comm(self, state, rank, group_ranks, parent):
        return MPIComm(state=state, rank=rank, group_ranks=group_ranks, parent=parent)

    def _gather_all(self, array: np.ndarray) -> List[np.ndarray]:
        parts = self._state.mpicomm.allgather(array)
        return [np.asarray(p) for p in parts]

    # -- native MPI data movement -------------------------------------------
    def allgather_object(self, obj: Any) -> List[Any]:
        if self.size == 1:
            return [obj]
        items = self._state.mpicomm.allgather(obj)
        self._record("all_gather", _nwords(obj) * self.size)
        return list(items)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        if self.size == 1:
            return obj
        value = self._state.mpicomm.bcast(obj, root=root)
        self._record("broadcast", _nwords(value))
        return value

    def gather(self, array: np.ndarray, root: int = 0) -> Optional[List[np.ndarray]]:
        array = np.asarray(array)
        if self.size == 1:
            return [array]
        parts = self._state.mpicomm.gather(array, root=root)
        self._record("gather", _nwords(array) * self.size)
        if parts is None:
            return None
        return [np.asarray(p) for p in parts]

    def scatter(
        self, arrays: Optional[Sequence[np.ndarray]], root: int = 0
    ) -> np.ndarray:
        if self.size == 1:
            assert arrays is not None
            return np.asarray(arrays[0])
        if self.rank == root and (arrays is None or len(arrays) != self.size):
            raise CommunicatorError(
                f"root must provide exactly {self.size} arrays to scatter"
            )
        mine = np.asarray(self._state.mpicomm.scatter(arrays, root=root))
        self._record("scatter", _nwords(mine) * self.size)
        return mine

    # -- communicator management --------------------------------------------
    def split(self, color: int, key: Optional[int] = None) -> "MPIComm":
        """Partition via ``MPI_Comm_split`` (same ordering as the base split)."""
        if key is None:
            key = self.rank
        info = self.allgather_object((int(color), int(key), self.rank))
        members = sorted(
            [(k, r) for (c, k, r) in info if c == int(color)],
            key=lambda kr: (kr[0], kr[1]),
        )
        group_local_ranks = [r for _, r in members]
        new_rank = group_local_ranks.index(self.rank)
        group_world_ranks = tuple(self._group_ranks[r] for r in group_local_ranks)
        sub_mpicomm = self._state.mpicomm.Split(int(color), new_rank)
        sub_state = MPIGroupState(sub_mpicomm)
        return MPIComm(
            state=sub_state,
            rank=new_rank,
            group_ranks=group_world_ranks,
            parent=self,
        )


class MPIBackend(Backend):
    """Runs an SPMD program on the ranks of an externally launched MPI job.

    The job must already be running under ``mpirun``/``srun`` with exactly
    ``n_ranks`` processes; :meth:`run` raises a clear error (with the exact
    ``mpirun`` command) when ``MPI.COMM_WORLD`` is sized differently.
    """

    parallel_python = True
    cross_process = True
    wire_transport = True

    def run(self, program: Callable[..., Any], *args: Any, **kwargs: Any) -> List[Any]:
        world = MPI.COMM_WORLD
        world_size = world.Get_size()
        if self.n_ranks == 1 and world_size == 1:
            comm = Comm(state=SharedGroupState(1), rank=0, group_ranks=(0,))
            return [program(comm, *args, **kwargs)]
        if world_size != self.n_ranks:
            raise CommunicatorError(
                f"the 'mpi' backend needs an MPI job with exactly "
                f"{self.n_ranks} rank(s), but MPI.COMM_WORLD has {world_size}; "
                f"launch with e.g. `mpirun -n {self.n_ranks} python "
                "your_program.py` (the in-repo alternatives 'socket' and "
                "'process' launch their own ranks)"
            )
        # Dup so the program's traffic never collides with other libraries'
        # use of COMM_WORLD.
        state = MPIGroupState(world.Dup())
        comm = MPIComm(
            state=state,
            rank=state.mpicomm.Get_rank(),
            group_ranks=tuple(range(world_size)),
        )
        try:
            value = program(comm, *args, **kwargs)
        except BaseException:  # noqa: BLE001 - a hung collective is worse
            import traceback

            traceback.print_exc()
            world.Abort(1)
            raise  # pragma: no cover - Abort does not return
        # Every rank returns the full rank-ordered result list, so caller
        # code behaves identically regardless of which rank it runs on.
        return list(state.mpicomm.allgather(value))


if MPI4PY_AVAILABLE:  # pragma: no cover - exercised by the CI mpi leg
    register_backend("mpi", MPIBackend)
else:
    register_unavailable_backend(
        "mpi",
        "mpi4py is not installed; install an MPI implementation and mpi4py "
        "(e.g. `apt-get install libopenmpi-dev openmpi-bin && pip install "
        "mpi4py`) and launch under `mpirun -n <ranks>`",
    )
