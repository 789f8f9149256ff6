"""The TCP wire backend: collective payloads travel as frames, not shared memory.

:class:`SocketBackend` is the substrate whose ranks communicate the way a
distributed-memory machine does — length-prefixed frames over persistent TCP
connections (see :mod:`repro.comm.wire` for the frame layout).  The launcher,
the mesh, the token transport and the failure handling are the shared forked
runtime (:mod:`repro.comm.backends.forked`); what this module adds is the
choice of *where collective payloads go*: onto the wire.

The native :class:`~repro.comm.communicator.Comm` collectives need shared
deposit slots, which do not exist on a wire (:class:`_WireSlots` refuses any
touch).  :class:`SocketComm` therefore overrides them with point-to-point
algorithms from :mod:`repro.comm.collectives` that *only move bytes*, and
applies the native rank-order ``ReduceOp.combine`` to what arrives — the
recipe the nonblocking helper bodies use, so the factors stay
**byte-identical** to the thread / process / lockstep backends (recursive
halving's pairwise partial sums would not be):

* gathers ride :func:`~repro.comm.collectives.recursive_doubling_allgather`
  (``log p`` messages, each block forwarded once);
* ``reduce_scatter`` is
  :func:`~repro.comm.collectives.slice_exchange_reduce_scatter`: rank ``r``
  sends rank ``t`` only the slice ``t`` will own and combines the ``p``
  slices of its own index — ``p - 1`` messages instead of ``log p``;
* ``allreduce`` / ``reduce`` still gather every rank's whole contribution and
  combine locally.  They carry the ``k × k`` Grams and scalars, which are
  latency-bound: a reduce-scatter + all-gather would double the messages to
  save bytes that do not matter.

So for the two collectives that carry the factor blocks the bytes on the wire
are the bytes of the §2.3 model — ``(p-1)/p · n`` words per rank — and a
contiguous block goes to and comes from the kernel without a staging copy in
user space (see :mod:`repro.comm.wire`).  The physical p2p traffic is
silenced on the cost ledger and each collective books the one modeled §2.3
entry instead, so ledgers match the other backends entry for entry.

Capability flags: ``parallel_python`` and ``cross_process`` (forked OS
processes), plus ``wire_transport`` — the collectives genuinely serialize
onto a byte stream, so this backend's measurements transfer to multi-node
deployments in a way the shared-memory backends' cannot.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.backends.base import register_backend
from repro.comm.backends.forked import (
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_TIMEOUT,
    ForkedBackend,
    ForkedRuntime,
)
from repro.comm.collectives import (
    recursive_doubling_allgather,
    slice_exchange_reduce_scatter,
)
from repro.comm.communicator import (
    Comm,
    ReduceOp,
    _nwords,
    _require_safe_cast,
)
from repro.util.errors import CommunicatorError


class _WireSlots:
    """Deposit slots do not exist on a wire; any touch is a protocol bug."""

    def __init__(self, size: int):
        self._size = size

    def __len__(self) -> int:
        return self._size

    def _refuse(self) -> None:
        raise CommunicatorError(
            "the socket backend has no shared deposit slots; a collective "
            "fell through to the slot-based base implementation (SocketComm "
            "must override it with a point-to-point algorithm)"
        )

    def __getitem__(self, index):
        self._refuse()

    def __setitem__(self, index, value):
        self._refuse()


#: Tag for the object-collective star exchanges (setup-phase metadata only);
#: outside the per-round tag ranges used by repro.comm.collectives.
_OBJ_TAG = 2002


class SocketComm(Comm):
    """A :class:`Comm` whose collectives run point-to-point over TCP.

    Gathers use :func:`recursive_doubling_allgather`, ``reduce_scatter`` uses
    :func:`slice_exchange_reduce_scatter` (both move bytes only, and exactly
    the modeled ``(p-1)/p · n`` words); ``allreduce`` and ``reduce`` gather the
    full contributions.  Every reduction then combines locally in rank order
    — byte-identical to the native slot-based collectives on every backend.
    Physical p2p traffic is silenced on the ledger; each collective books the
    single modeled §2.3 entry the native implementation would have recorded.
    """

    def _make_comm(self, state, rank, group_ranks, parent):
        return SocketComm(
            state=state, rank=rank, group_ranks=group_ranks, parent=parent
        )

    def _gather_all(self, array: np.ndarray) -> List[np.ndarray]:
        """All contributions in rank order, physical traffic silenced."""
        with self._silenced():
            return recursive_doubling_allgather(self, array)

    # -- object collectives (setup-phase metadata) ---------------------------
    def allgather_object(self, obj: Any) -> List[Any]:
        if self.size == 1:
            return [obj]
        with self._silenced():
            if self.rank == 0:
                items = [obj] + [
                    self.recv(source=r, tag=_OBJ_TAG) for r in range(1, self.size)
                ]
                for r in range(1, self.size):
                    self.send(items, dest=r, tag=_OBJ_TAG)
            else:
                self.send(obj, dest=0, tag=_OBJ_TAG)
                items = self.recv(source=0, tag=_OBJ_TAG)
        self._record("all_gather", _nwords(obj) * self.size)
        return list(items)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        if self.size == 1:
            return obj
        with self._silenced():
            if self.rank == root:
                for r in range(self.size):
                    if r != root:
                        self.send(obj, dest=r, tag=_OBJ_TAG)
                value = obj
            else:
                value = self.recv(source=root, tag=_OBJ_TAG)
        self._record("broadcast", _nwords(value))
        return value

    # -- array collectives ----------------------------------------------------
    def allgather(self, array: np.ndarray) -> List[np.ndarray]:
        array = np.asarray(array)
        if self.size == 1:
            return [array]
        gathered = self._gather_all(array)
        self._record("all_gather", sum(_nwords(g) for g in gathered))
        return gathered

    def allgatherv(
        self, array: np.ndarray, axis: int = 0, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        array = np.asarray(array)
        self._validate_out(out, array)
        if self.size == 1:
            if out is None:
                return array
            if out.shape != array.shape:
                raise CommunicatorError(
                    f"out buffer has shape {out.shape}, expected {array.shape}"
                )
            return self._copy_result(out, array)
        parts = self._gather_all(array)
        self._record("all_gather", sum(_nwords(p) for p in parts))
        if out is None:
            return np.concatenate(parts, axis=axis)
        _require_safe_cast(np.result_type(*parts), out, "gathered")
        try:
            np.concatenate(parts, axis=axis, out=out)
        except ValueError as exc:
            raise CommunicatorError(
                f"out buffer shape {out.shape} does not match the "
                f"gathered result: {exc}"
            ) from exc
        return out

    def gather(self, array: np.ndarray, root: int = 0) -> Optional[List[np.ndarray]]:
        array = np.asarray(array)
        if self.size == 1:
            return [array]
        with self._silenced():
            if self.rank == root:
                result = [
                    array.copy()
                    if r == root
                    else np.asarray(self.recv(source=r, tag=_OBJ_TAG))
                    for r in range(self.size)
                ]
            else:
                self.send(array, dest=root, tag=_OBJ_TAG)
                result = None
        self._record("gather", _nwords(array) * self.size)
        return result

    def scatter(
        self, arrays: Optional[Sequence[np.ndarray]], root: int = 0
    ) -> np.ndarray:
        if self.size == 1:
            assert arrays is not None
            return np.asarray(arrays[0])
        with self._silenced():
            if self.rank == root:
                if arrays is None or len(arrays) != self.size:
                    raise CommunicatorError(
                        f"root must provide exactly {self.size} arrays to scatter"
                    )
                for r in range(self.size):
                    if r != root:
                        self.send(np.asarray(arrays[r]), dest=r, tag=_OBJ_TAG)
                mine = np.asarray(arrays[root]).copy()
            else:
                mine = np.asarray(self.recv(source=root, tag=_OBJ_TAG))
        self._record("scatter", _nwords(mine) * self.size)
        return mine

    def reduce(
        self, array: np.ndarray, root: int = 0, op: ReduceOp = ReduceOp.SUM
    ) -> Optional[np.ndarray]:
        array = np.asarray(array)
        if self.size == 1:
            return array.copy()
        parts = self._gather_all(array)
        result = op.combine(parts) if self.rank == root else None
        self._record("reduce", _nwords(array))
        return result

    def allreduce(
        self,
        array: np.ndarray,
        op: ReduceOp = ReduceOp.SUM,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        array = np.asarray(array)
        self._validate_out(out, array, expected_shape=array.shape)
        if self.size == 1:
            if out is None:
                return array.copy()
            return self._copy_result(out, array)
        parts = self._gather_all(array)
        result = op.combine(parts, out=out)
        self._record("all_reduce", _nwords(array))
        return result

    def reduce_scatter(
        self,
        array: np.ndarray,
        counts: Optional[Sequence[int]] = None,
        axis: int = 0,
        op: ReduceOp = ReduceOp.SUM,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        array = np.asarray(array)
        counts = self._scatter_counts(array, counts, axis, out)
        if self.size == 1:
            if out is None:
                return array.copy()
            return self._copy_result(out, array)
        with self._silenced():
            result = slice_exchange_reduce_scatter(self, array, counts, axis, op, out)
        self._record("reduce_scatter", _nwords(array))
        return result


class _WireRuntime(ForkedRuntime):
    """The forked runtime with nowhere to deposit: payloads ride the frames."""

    def make_slots(self, members: Tuple[int, ...]) -> _WireSlots:
        return _WireSlots(len(members))


class SocketBackend(ForkedBackend):
    """Launches an SPMD program on ``n_ranks`` processes over a TCP mesh.

    Parameters
    ----------
    n_ranks:
        Number of SPMD ranks (forked processes).  Exceeding the host's CPU
        count emits a :class:`RuntimeWarning`, as on the process backend.
    name:
        Label used in process names and diagnostics.
    timeout:
        Seconds a rank waits on a barrier or recv token before raising a
        :class:`~repro.util.errors.CommunicatorError` naming the token and
        the likely-stuck peer.
    connect_timeout:
        Seconds allowed for building the full mesh (and for each hello
        handshake); a rank that cannot reach a peer raises naming that peer
        and its port.
    """

    wire_transport = True
    registry_name = "socket"
    comm_class = SocketComm

    def __init__(
        self,
        n_ranks: int,
        name: str = "spmd",
        *,
        timeout: float = DEFAULT_TIMEOUT,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ):
        super().__init__(n_ranks, name, timeout)
        self.connect_timeout = float(connect_timeout)

    def _make_runtime(self) -> _WireRuntime:
        return _WireRuntime(self.n_ranks, self.timeout, self.connect_timeout)


register_backend(SocketBackend.registry_name, SocketBackend)
