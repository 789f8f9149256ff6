"""The MPI wire backend: the Backend ABC mapped onto real MPI via ``mpi4py``.

Import-guarded: when ``mpi4py`` is not installed the module still imports
cleanly and sets :data:`MPI4PY_AVAILABLE` to ``False``.  The backend table
(:mod:`repro.comm.backends.base`) reads that flag when ``"mpi"`` is looked
up: ``available_backends()`` then omits it, and ``--backend mpi`` fails with
an actionable message instead of a generic "unknown backend".

Unlike every other backend, MPI ranks are not launched *by* this process:
the job is started externally (``mpirun -n 4 python program.py``) and every
rank executes the whole script.  :meth:`MPIBackend.run` therefore checks
that ``MPI.COMM_WORLD`` matches the requested ``n_ranks`` and raises a
:class:`~repro.util.errors.CommunicatorError` telling the user the exact
``mpirun`` invocation otherwise.  Each rank returns the full rank-ordered
result list (collected with an MPI allgather), so calling code behaves
identically on every rank.

Byte-identity: an MPI group state has no deposit slots, so
:class:`~repro.comm.communicator.Comm` moves every collective point-to-point
and combines in rank order, exactly as on ``socket``.  :class:`MPIComm`
swaps in one native collective — "every rank's value" is ``mpi4py``'s
pickle-based ``allgather``, which moves bytes exactly — and leaves the rest
alone: reductions deliberately do **not** use ``MPI.SUM`` (MPI's internal
reduction-tree order differs from the rank-order combine), and
``reduce_scatter`` is the slice exchange over the mailboxes below.  Factors
stay byte-identical to thread/process/lockstep/socket.

Every collective is a blocking call on the rank's own thread, as on every
backend (:class:`~repro.comm.communicator.CommHandle`s complete at issue),
so ``MPI_THREAD_SINGLE`` builds suffice.
"""

from __future__ import annotations

import contextlib
import queue
import time
from typing import Any, Callable, List, Optional

from repro.comm.backends.base import Backend, SharedGroupState
from repro.comm.communicator import Comm
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

    def get(self, timeout: float) -> Any:
        deadline = time.monotonic() + timeout
        # mpi4py has no timed recv; poll so Comm.recv's timeout diagnostics
        # (queue.Empty -> CommunicatorError naming the source) keep working.
        while not self._mpicomm.Iprobe(source=self._src, tag=_P2P_TAG):
            if time.monotonic() >= deadline:
                raise queue.Empty
            time.sleep(_POLL_INTERVAL)
        return self._mpicomm.recv(source=self._src, tag=_P2P_TAG)


class MPIGroupState(SharedGroupState):
    """Group state backed by one (duplicated) mpi4py communicator."""

    def __init__(self, mpicomm):
        super().__init__(mpicomm.Get_size())
        self.mpicomm = mpicomm
        self.slots = None  # nowhere to deposit: Comm moves point-to-point

    def _new_mailbox(self, src: int, dst: int) -> _MPIMailbox:
        return _MPIMailbox(self.mpicomm, src, dst)

    def make_subgroup(self, size, members=None, reg_key=None):
        raise CommunicatorError(
            "MPI sub-groups are created with MPI_Comm_split; MPIComm.split "
            "must be used instead of the registry-based make_subgroup path"
        )

    def wait(self) -> None:
        self.mpicomm.Barrier()


class MPIComm(Comm):
    """A :class:`~repro.comm.communicator.Comm` whose gathers are ``MPI_Allgather``.

    Only the movement differs; the collective bodies — and so the rank-order
    combine that keeps every backend byte-identical — are the base class's.
    """

    @contextlib.contextmanager
    def _from_all(self, value: Any):
        yield self._state.mpicomm.allgather(value)

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
