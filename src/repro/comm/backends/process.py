"""The shared-memory backend: collective payloads go through deposit slots.

:class:`ProcessBackend` runs one OS process per rank, so the ranks escape the
GIL and genuinely execute concurrently — including the pure-Python hot spots
(the BPP active-set bookkeeping inside NLS) that the thread backend can only
interleave.  This is the substrate that can actually *observe* the speedups
the paper's §6 evaluation measures.

The launcher, the barriers, point-to-point messages and the failure handling
are the shared forked runtime (:mod:`repro.comm.backends.forked`); what this
module adds is the choice of *where collective payloads go*.  Given slots,
``Comm``'s collectives move by a deposit / barrier / read / barrier protocol
against them, and here the slots cross process boundaries:

* **deposit slots** live in :mod:`multiprocessing.shared_memory` segments,
  one per world rank (single writer, any reader).  A deposit writes a small
  fixed header (kind, dtype, shape) followed by the raw array bytes; a read
  returns a zero-copy :class:`numpy.ndarray` **view** of the peer's segment.
  No pickling happens for array payloads, so the per-iteration collectives —
  including their ``out=`` / :attr:`Comm.workspace` fast paths — move bytes
  exactly once, shared memory to caller buffer.  Non-array payloads (the
  ``split`` and ``DistMatrix2D`` set-up metadata) fall back to pickling into
  the same segment; they are setup-phase, not hot-path.
* **segments grow by generation**: a deposit larger than the current segment
  creates a fresh, doubled segment named ``<session>-r<rank>-g<gen>`` and
  publishes the new generation number in a tiny shared control array;
  readers re-attach by name when they observe a bumped generation.

Determinism: all reductions still run in rank order inside ``Comm``, so for a
fixed seed the factors are byte-identical to the thread and lockstep backends
(asserted by the parity tests).
"""

from __future__ import annotations

import os
import pickle
import struct
import uuid
from multiprocessing import shared_memory
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.comm.backends.base import register_backend
from repro.comm.backends.forked import (
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_TIMEOUT,
    ForkedBackend,
    ForkedRuntime,
)
from repro.util.errors import CommunicatorError

#: Fixed slot header: kind, payload bytes, ndim, 16 shape entries, dtype str.
_HEADER_FMT = "<3q16q64s"
_HEADER_BYTES = 256
assert struct.calcsize(_HEADER_FMT) <= _HEADER_BYTES
_MAX_DIMS = 16
_DTYPE_BYTES = 64

_KIND_EMPTY, _KIND_ARRAY, _KIND_PICKLE = 0, 1, 2

#: Initial per-rank deposit-slot capacity; grows by doubling on demand.
DEFAULT_SLOT_BYTES = 1 << 20


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment by name without re-registering ownership.

    Python 3.13 grew a ``track`` parameter (attachments would otherwise be
    double-registered with the resource tracker and double-unlinked);
    earlier versions never tracked attachments.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        return shared_memory.SharedMemory(name=name)


class _SharedMemoryRuntime(ForkedRuntime):
    """The forked runtime plus one generation-grown deposit slot per rank.

    Created in the parent *before* the fork, so the control segment and the
    generation-0 data segments are plain inherited OS resources; segment
    caches and grown segments are per-process state past that point.
    """

    def __init__(self, n_ranks: int, timeout: float, connect_timeout: float, slot_bytes: int):
        super().__init__(n_ranks, timeout, connect_timeout)
        self.session = f"repro-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        #: Published data-segment generation per world rank (shared int64s).
        self.control = shared_memory.SharedMemory(
            create=True, name=f"{self.session}-ctl", size=8 * n_ranks
        )
        self.generations = np.ndarray((n_ranks,), dtype=np.int64, buffer=self.control.buf)
        self.generations[:] = 0
        #: Generation-0 deposit segments, created pre-fork and inherited.
        self._segments: Dict[Tuple[int, int], shared_memory.SharedMemory] = {
            (r, 0): shared_memory.SharedMemory(
                create=True, name=self._segment_name(r, 0), size=slot_bytes
            )
            for r in range(n_ranks)
        }
        #: Segments this (child) process created by growing its own slot.
        self._grown: List[shared_memory.SharedMemory] = []

    # -- deposit slots ------------------------------------------------------
    def make_slots(self, members: Tuple[int, ...]) -> "_ProcessSlots":
        return _ProcessSlots(self, members)

    def _segment_name(self, rank: int, generation: int) -> str:
        return f"{self.session}-r{rank}-g{generation}"

    def _segment(self, rank: int) -> shared_memory.SharedMemory:
        """The current-generation segment of ``rank``, attaching if it grew."""
        generation = int(self.generations[rank])
        key = (rank, generation)
        seg = self._segments.get(key)
        if seg is None:
            seg = _attach_segment(self._segment_name(rank, generation))
            self._segments[key] = seg
        return seg

    def _writable_segment(self, nbytes: int) -> shared_memory.SharedMemory:
        """This rank's segment, grown (new generation) if ``nbytes`` won't fit."""
        rank = self.rank
        assert rank is not None, "only bound rank processes deposit"
        seg = self._segment(rank)
        if seg.size < nbytes:
            generation = int(self.generations[rank]) + 1
            grown = shared_memory.SharedMemory(
                create=True,
                name=self._segment_name(rank, generation),
                size=max(nbytes, 2 * seg.size),
            )
            self._segments[(rank, generation)] = grown
            self._grown.append(grown)
            # Publish *after* the segment exists; peers only look for the new
            # name once they read the bumped generation (and only after the
            # post-deposit barrier, which orders these writes for them).
            self.generations[rank] = generation
            return grown
        return seg

    def deposit(self, value: Any) -> None:
        """Write ``value`` into this rank's slot (arrays raw, the rest pickled)."""
        if (
            isinstance(value, np.ndarray)
            and not value.dtype.hasobject
            and value.dtype.names is None
            and value.ndim <= _MAX_DIMS
            and len(value.dtype.str.encode("ascii", "replace")) <= _DTYPE_BYTES
        ):
            arr = np.ascontiguousarray(value)
            seg = self._writable_segment(_HEADER_BYTES + arr.nbytes)
            shape = list(arr.shape) + [0] * (_MAX_DIMS - arr.ndim)
            struct.pack_into(
                _HEADER_FMT, seg.buf, 0,
                _KIND_ARRAY, arr.nbytes, arr.ndim, *shape,
                arr.dtype.str.encode("ascii"),
            )
            if arr.nbytes:
                view = np.ndarray(
                    arr.shape, dtype=arr.dtype, buffer=seg.buf, offset=_HEADER_BYTES
                )
                np.copyto(view, arr)
                del view
            return
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        seg = self._writable_segment(_HEADER_BYTES + len(blob))
        struct.pack_into(
            _HEADER_FMT, seg.buf, 0,
            _KIND_PICKLE, len(blob), 0, *([0] * _MAX_DIMS), b"",
        )
        seg.buf[_HEADER_BYTES:_HEADER_BYTES + len(blob)] = blob

    def read_slot(self, rank: int) -> Any:
        """Read ``rank``'s deposit: a zero-copy array view, or the unpickled object."""
        seg = self._segment(rank)
        unpacked = struct.unpack_from(_HEADER_FMT, seg.buf, 0)
        kind, nbytes, ndim = unpacked[0], unpacked[1], unpacked[2]
        if kind == _KIND_ARRAY:
            shape = tuple(unpacked[3:3 + ndim])
            dtype = np.dtype(unpacked[19].rstrip(b"\x00").decode("ascii"))
            return np.ndarray(shape, dtype=dtype, buffer=seg.buf, offset=_HEADER_BYTES)
        if kind == _KIND_PICKLE:
            return pickle.loads(bytes(seg.buf[_HEADER_BYTES:_HEADER_BYTES + nbytes]))
        raise CommunicatorError(
            f"rank {self.rank} read rank {rank}'s deposit slot before any deposit "
            "(collective protocol violation)"
        )

    # -- cleanup ------------------------------------------------------------
    def close(self) -> None:
        super().close()
        self.release_grown()

    def release_grown(self) -> None:
        """Unlink the segments this (child) process created by growing its slot.

        Safe at program end: the closing barrier of every collective
        guarantees peers finished reading, and unlinking only removes the
        name — peers' existing attachments stay mapped.
        """
        for seg in self._grown:
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._grown = []

    def release_parent(self) -> None:
        """Unlink everything the parent created, plus orphans of killed ranks."""
        for rank in range(self.n_ranks):
            # Grown segments are normally unlinked by their creating child;
            # sweep survivors (e.g. a rank killed mid-run) by name.
            for generation in range(1, int(self.generations[rank]) + 1):
                key = (rank, generation)
                if key in self._segments:
                    continue
                try:
                    orphan = _attach_segment(self._segment_name(rank, generation))
                except FileNotFoundError:
                    continue
                try:
                    orphan.unlink()
                    orphan.close()
                except Exception:  # pragma: no cover - best-effort sweep
                    pass
        for seg in self._segments.values():
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
            try:
                seg.close()
            except BufferError:  # pragma: no cover - a live view pins the map
                pass
        # Drop the numpy view before closing its backing buffer.
        del self.generations
        try:
            self.control.unlink()
            self.control.close()
        except (FileNotFoundError, BufferError):  # pragma: no cover
            pass


class _ProcessSlots:
    """Group-local view of the per-world-rank shared-memory deposit slots."""

    def __init__(self, runtime: "_SharedMemoryRuntime", members: Tuple[int, ...]):
        self._runtime = runtime
        self._members = members

    def __setitem__(self, local_rank: int, value: Any) -> None:
        world = self._members[local_rank]
        if world != self._runtime.rank:
            raise CommunicatorError(
                f"rank {self._runtime.rank} attempted to write rank {world}'s "
                "deposit slot; slots are single-writer"
            )
        self._runtime.deposit(value)

    def __getitem__(self, local_rank: int) -> Any:
        return self._runtime.read_slot(self._members[local_rank])

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return (self[i] for i in range(len(self._members)))


class ProcessBackend(ForkedBackend):
    """Launches an SPMD program on ``n_ranks`` OS processes (fork + shared memory).

    Parameters
    ----------
    n_ranks:
        Number of SPMD ranks (processes).  Exceeding the host's CPU count
        emits a :class:`RuntimeWarning` — the ranks still run, but
        oversubscribed, which defeats the point of a process backend.
    name:
        Label used in process names and diagnostics.
    slot_bytes:
        Initial capacity of each rank's shared-memory deposit slot; grown
        automatically (doubling) when a larger array is deposited.
    timeout:
        Seconds a rank waits on a barrier token before declaring the group
        stuck (a generous bound on the slowest rank's compute phase).
    """

    registry_name = "process"

    def __init__(
        self,
        n_ranks: int,
        name: str = "spmd",
        *,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        super().__init__(n_ranks, name, timeout)
        self.slot_bytes = int(slot_bytes)

    def _make_runtime(self) -> _SharedMemoryRuntime:
        return _SharedMemoryRuntime(
            self.n_ranks, self.timeout, DEFAULT_CONNECT_TIMEOUT, self.slot_bytes
        )


register_backend(ProcessBackend.registry_name, ProcessBackend)
