"""The shared-memory backend: collective payloads go through deposit slots.

:class:`ProcessBackend` runs one OS process per rank, so the ranks escape the
GIL and genuinely execute concurrently — including the pure-Python hot spots
(the BPP active-set bookkeeping inside NLS) that the thread backend can only
interleave.  This is the substrate that can actually *observe* the speedups
the paper's §6 evaluation measures.

The launcher, point-to-point messages and the failure handling are the
shared forked runtime (:mod:`repro.comm.backends.forked`); what this module
adds is the choice of *where collective payloads go* and, because the answer
is shared memory, a barrier that stays there too.  Given slots, ``Comm``'s
collectives move by a deposit / barrier / read / barrier protocol against
them, and here the slots cross process boundaries:

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
* **barrier tokens are counters in the control segment**: next to the ``p``
  generations sit ``p * p`` int64 words, ``tokens[src, dst]`` written by
  ``src`` alone.  :meth:`_SharedMemoryRuntime.barrier` runs the runtime's
  dissemination rounds with ``tokens[me, dst] += 1`` for a send and a poll
  of ``tokens[src, me]`` against a per-process count for a receive — the
  flag-based dissemination barrier of Hensgen, Finkel & Manber (1988) and
  Mellor-Crummey & Scott (1991).  A barrier costs ~2 us at p = 2 where the
  TCP token (``sendmsg`` → the peer's reader thread → a condition variable →
  its main thread) cost ~120, and two of those were most of what a
  latency-bound collective (the ``k x k`` Gram and scalar all-reduces of
  Algorithms 2 and 3) took.  The waiter still polls the runtime's abort
  flag, which the mesh's reader threads set, so dead peers, abort echoes and
  timeouts are reported as on ``socket``.

Determinism: all reductions still run in rank order inside ``Comm``, so for a
fixed seed the factors are byte-identical to the thread and lockstep backends
(asserted by the parity tests).
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import time
import uuid
from multiprocessing import shared_memory
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.comm.backends.forked import (
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_TIMEOUT,
    ForkedBackend,
    ForkedRuntime,
)
from repro.util.errors import CommunicatorError

#: How a rank waits for a barrier token (:meth:`_SharedMemoryRuntime._await_token`):
#: it polls the counter between ``os.sched_yield()`` calls for
#: ``YIELD_SECONDS``, then between sleeps that double from
#: ``SLEEP_MIN_SECONDS`` to ``SLEEP_MAX_SECONDS``.  A yield releases the GIL
#: and costs ~0.5 us; to a rank with a core of its own it is a spin, and where
#: ranks share a core it hands the core to the peer being waited for.  A sleep
#: takes the waiter off the run queue, but the shortest ``time.sleep`` takes
#: ~70 us here (and idling a virtual CPU more than that), so it is for waits
#: that are already long.  Chosen on a 2-CPU host (Python 3.11) from wall
#: seconds of ``hpc2d`` fits, medians of 10-12 interleaved runs per value:
#:
#: * One rank per core, one BLAS thread each — the 20-iteration ``dense_bpp``
#:   fit (2048 x 1536, k = 16), whose waits are half immediate, a fifth
#:   30-300 us and a quarter 1-3 ms (the skew after each NLS solve).
#:   ``YIELD_SECONDS`` 0 / 0.001 / 0.02 / 0.2: 0.423 / 0.342 / 0.338 / 0.330;
#:   a second sweep, 0.001 / 0.002 / 0.005 / 0.02: 0.424 / 0.402 / 0.399 /
#:   0.383.  Sleeping at once loses 10-25 %; from 1 ms up the differences are
#:   inside the quartiles.
#: * Four ranks on the 2 CPUs, and on one (pinned): 0 / 0.001 / 0.02 —
#:   0.646 / 0.562 / 0.559 and 1.079 / 1.157 / 1.096.  Insensitive, because a
#:   yield there gives the core away.
#: * Two ranks, two BLAS threads each on the 2 CPUs, a small problem
#:   (768 x 512, k = 8; 0.054 s with BLAS pinned to one thread): 0 / 0.001 /
#:   0.002 / 0.005 / 0.02 — 0.27 / 0.395 / 0.403 / 0.546 / 0.553, the token
#:   barrier this one replaced 0.296.  The BLAS workers spin on yields of
#:   their own, so a yielding waiter queues behind them for a scheduler slice;
#:   2 ms is the last value before the step, which is what decided it.
#: * No phase of system-call-free polls before the first yield: 0 / 32 / 1000
#:   polls gave 0.323 / 0.315 / 0.331 on ``dense_bpp`` and a 2-rank
#:   ``barrier`` of 2.0 / 1.7 / 1.9 us, and 20 000 polls (~3 ms holding the
#:   GIL and the core) made the four-rank fits 1.8x slower.
YIELD_SECONDS = 0.002
SLEEP_MIN_SECONDS = 1.0e-4
SLEEP_MAX_SECONDS = 2.0e-3

_yield = getattr(os, "sched_yield", lambda: time.sleep(0))

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
        #: Control segment: ``p`` data-segment generations, then ``p * p``
        #: barrier-token counters — all int64, each with a single writer.
        self.control = shared_memory.SharedMemory(
            create=True, name=f"{self.session}-ctl", size=8 * (n_ranks + n_ranks * n_ranks)
        )
        #: Published data-segment generation per world rank.
        self.generations = np.ndarray((n_ranks,), dtype=np.int64, buffer=self.control.buf)
        self.generations[:] = 0
        #: ``tokens[src * p + dst]``: barrier tokens ``src`` has posted to
        #: ``dst`` since the fork (written by ``src`` only; a new segment is
        #: zero-filled).  A memoryview, not an ndarray: a scalar read is a
        #: quarter of the price.
        self._tokens = self.control.buf[8 * n_ranks:].cast("q")
        #: Tokens this rank has consumed from each source (per-process).
        self._consumed = [0] * n_ranks
        #: Held for good by whoever owns this copy of the runtime; see _fence.
        self._fence_lock = threading.Lock()
        self._fence_lock.acquire()
        #: Generation-0 deposit segments, created pre-fork and inherited.
        self._segments: Dict[Tuple[int, int], shared_memory.SharedMemory] = {
            (r, 0): shared_memory.SharedMemory(
                create=True, name=self._segment_name(r, 0), size=slot_bytes
            )
            for r in range(n_ranks)
        }
        #: Segments this (child) process created by growing its own slot.
        self._grown: List[shared_memory.SharedMemory] = []

    # -- flag barrier --------------------------------------------------------
    def barrier(self, uid: Any, members: Tuple[int, ...]) -> None:
        """Synchronize ``members``: the dissemination rounds, tokens in shared memory.

        The rounds are :meth:`ForkedRuntime.barrier`'s; a token is one more on
        the counter ``tokens[src, dst]`` instead of a TCP frame, and the
        receiver counts what it has consumed from each source.  Counting is
        enough — no group, epoch or round in the token — because a barrier
        releases nobody before everybody has arrived: two ranks pass the
        barriers of every group they share in one order, so the *n*-th token
        from ``src`` is the *n*-th both of them mean, and groups split off
        after the fork need no shared state of their own (``uid`` is unused).
        One thread per rank may be in a barrier at a time, which holds since
        every collective on this backend is a blocking call.
        """
        if self._aborted:
            self._raise_abort()
        n = len(members)
        if n == 1:
            return
        me = members.index(self.rank)
        distance = 1
        while distance < n:
            # Whatever this rank wrote (a deposit) or read (a peer's slot)
            # before the barrier happens before the token that announces it.
            self._fence()
            self._tokens[self.rank * self.n_ranks + members[(me + distance) % n]] += 1
            self._await_token(members[(me - distance) % n])
            self._fence()
            distance *= 2

    def _fence(self) -> None:
        """Order this rank's earlier loads and stores before its later ones.

        x86-TSO keeps store-store and load-load order by itself and needs
        nothing here.  On weaker hosts (AArch64, POWER) the order comes from
        the lock: releasing it is a release operation and re-acquiring it an
        acquire of the same word, which those architectures keep in order, so
        what came before the release is visible before what follows the
        acquire.  Nobody contends for the lock; the pair costs ~0.15 us.
        """
        self._fence_lock.release()
        self._fence_lock.acquire()

    def _await_token(self, src: int) -> None:
        """Consume the next token from ``src``, yielding and then sleeping for it.

        The phases are the module constants above.  Every wait between polls
        releases the GIL — the reader threads that notice a dead peer or an
        abort frame need it — and every poll that finds no token looks at the
        abort flag and the clock, so a wait fails the three ways a token wait
        on the mesh does: a peer's abort, a lost peer, or ``timeout`` seconds
        without the token, naming ``src``.
        """
        want = self._consumed[src] + 1
        tokens, index = self._tokens, src * self.n_ranks + self.rank
        start = time.monotonic()
        delay = SLEEP_MIN_SECONDS
        while tokens[index] < want:
            if self._aborted:
                self._raise_abort()
            waited = time.monotonic() - start
            if waited >= self.timeout:
                raise CommunicatorError(
                    f"rank {self.rank} timed out after {self.timeout:g}s waiting "
                    f"for a barrier token from peer rank {src}; peer rank {src} "
                    "likely crashed or is stuck"
                )
            if waited < YIELD_SECONDS:
                _yield()
            else:
                time.sleep(delay)
                delay = min(2.0 * delay, SLEEP_MAX_SECONDS)
        self._consumed[src] = want

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
            seg = self._writable_segment(_HEADER_BYTES + value.nbytes)
            shape = list(value.shape) + [0] * (_MAX_DIMS - value.ndim)
            struct.pack_into(
                _HEADER_FMT, seg.buf, 0,
                _KIND_ARRAY, value.nbytes, value.ndim, *shape,
                value.dtype.str.encode("ascii"),
            )
            if value.nbytes:
                # One pass, whatever the strides: the view is C-contiguous,
                # which is how read_slot will describe it.
                view = np.ndarray(
                    value.shape, dtype=value.dtype, buffer=seg.buf, offset=_HEADER_BYTES
                )
                np.copyto(view, value)
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
        # Drop the views before closing their backing buffer.
        del self.generations
        self._tokens.release()
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
