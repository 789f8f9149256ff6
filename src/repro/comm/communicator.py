"""The MPI-like communicator used by the parallel NMF algorithms.

:class:`Comm` exposes the subset of MPI that Algorithms 2 and 3 of the paper
need — the three collectives of §2.3 (the concatenating all-gather
``allgatherv``, ``reduce_scatter`` and ``allreduce``, whose every reduction
is a sum), two request-handle twins complete at issue
(``iallgatherv``/``iallreduce``), point-to-point ``send``/``recv``,
``barrier`` and ``split`` — with numpy-buffer semantics matching mpi4py's
uppercase, buffer-based API (the fast path the mpi4py tutorial recommends for
array data).

A collective is *movement* plus a *rank-order combine*, and each is written
once.  The body validates, moves, and then runs one ``np.concatenate`` or one
:func:`rank_order_sum` over the contributions in rank order — so every rank,
on every backend, computes bitwise-identical results.  Movement is one of two
private primitives (:meth:`Comm._from_all`: every rank's value;
:meth:`Comm._own_slices`: the ``p`` slices of my index), and a communicator
picks how to move from what it can observe:

* **nothing** — its size is 1 (the row communicator of every ``pr × 1`` grid,
  the paper's HPC-NMF-1D, and the column communicator of ``1 × pc``): the
  reduction or concatenation of one contribution *is* that contribution, so
  after validating the arguments the collective hands back its input array
  — no copy into ``out``;
* **slots** — its group state has deposit slots
  (:class:`~repro.comm.backends.base.SharedGroupState`): deposit, barrier,
  read the peers' deposits as views, barrier again so no rank can start the
  next collective while a peer is still reading;
* **p2p** — the state has none (``socket``, ``mpi``): the two byte movers of
  :mod:`repro.comm.collectives` over ``send``/``recv``, silenced on the
  ledger.

Each communicator can carry a :class:`~repro.comm.cost.CostLedger`; every
collective then records the number of words and messages the *optimal* MPI
algorithm for that collective would move (the §2.3 expressions), which is the
quantity the paper's analysis — and our tests — reason about.
"""

from __future__ import annotations

import contextlib
import queue
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.backends.base import SharedGroupState
from repro.comm.cost import CostLedger
from repro.comm.workspace import CollectiveWorkspace
from repro.util.errors import CommunicatorError


def _require_safe_cast(src_dtype, out: np.ndarray, what: str) -> None:
    """Reject an ``out`` buffer whose dtype cannot hold ``src_dtype`` losslessly."""
    if not np.can_cast(src_dtype, out.dtype, casting="safe"):
        raise CommunicatorError(
            f"out buffer dtype {out.dtype} cannot hold the {what} "
            f"dtype {src_dtype} without loss"
        )


def rank_order_sum(
    arrays: Sequence[np.ndarray], out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Sum ``arrays`` elementwise in rank order (deterministic).

    Every reduction of Algorithms 2 and 3 is a sum, and every reduce-style
    collective ends in this one combine.  With ``out`` the sum is written
    into the provided buffer (which is also returned) instead of a freshly
    allocated array; ``out`` must match the element shape and must not alias
    any input.

    The first two contributions are added straight into the result — one
    pass over it, not a copy of the first followed by an in-place update —
    in the result's dtype, so the bits equal the two-pass form's.
    """
    if not arrays:
        raise CommunicatorError("cannot reduce an empty sequence")
    stack = [np.asarray(a) for a in arrays]
    dtype = np.result_type(*stack)
    if out is not None:
        if out.shape != stack[0].shape:
            raise CommunicatorError(
                f"out buffer has shape {out.shape}, expected {stack[0].shape}"
            )
        _require_safe_cast(dtype, out, "reduction")
        dtype = out.dtype
    else:
        out = np.empty(stack[0].shape, dtype)
    if len(stack) == 1:
        np.copyto(out, stack[0])
        return out
    np.add(stack[0], stack[1], out=out, dtype=dtype)
    for a in stack[2:]:
        np.add(out, a, out=out)
    return out


def _nwords(obj: Any) -> float:
    """Approximate size of a payload in 8-byte words (for the cost ledger)."""
    if isinstance(obj, np.ndarray):
        return obj.size * obj.itemsize / 8.0
    if isinstance(obj, (list, tuple)):
        return float(sum(_nwords(o) for o in obj))
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return 1.0
    return 1.0


class CommHandle:
    """Request handle of a collective that completed when it was issued.

    The MPI request-object surface of :meth:`Comm.iallgatherv` /
    :meth:`Comm.iallreduce`, the only code that makes one.  There is one completion mode, on every backend: the blocking
    collective runs at issue, on the issuing communicator, and books its own
    ledger entry there — nothing is ever in flight, so there is no helper
    thread, no input snapshot and no buffer to protect from reuse
    (``docs/ARCHITECTURE.md`` has the measurements behind that).  ``wait()``
    returns the result array (idempotent: every call returns the same array,
    none blocks).  A collective that fails raises from the issuing call; no
    handle is created for it.
    """

    def __init__(self, result: Any):
        self._result = result

    def wait(self) -> Any:
        return self._result


class Comm:
    """A communicator over a fixed group of SPMD ranks.

    Instances are created by the execution backends of
    :mod:`repro.comm.backends` (the world communicator handed to the SPMD
    program) and by :meth:`split` (row/column communicators of the processor
    grid).  The communicator is backend-agnostic: the group state it was
    constructed with supplies the synchronization mechanism.
    """

    def __init__(
        self,
        state: SharedGroupState,
        rank: int,
        group_ranks: Tuple[int, ...],
        parent: Optional["Comm"] = None,
        ledger: Optional[CostLedger] = None,
    ):
        if not 0 <= rank < state.size:
            raise CommunicatorError(f"rank {rank} out of range for size {state.size}")
        self._state = state
        self._rank = rank
        self._group_ranks = group_ranks
        self._parent = parent
        self._split_count = 0
        self._ledger = ledger
        self._workspace: Optional[CollectiveWorkspace] = None
        # How collectives move (see the module docstring): point-to-point when
        # the state has no deposit slots.
        self._p2p = state.slots is None
        # The byte movers' own send/recv must not hit the ledger.
        self._silent = False

    # -- identity ----------------------------------------------------------
    @property
    def rank(self) -> int:
        """This process's rank within the communicator (0-based)."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return self._state.size

    @property
    def ledger(self) -> Optional[CostLedger]:
        """The attached cost ledger; falls back to the parent communicator's.

        The dynamic lookup means a ledger attached to the world communicator
        is automatically used by the row/column sub-communicators the process
        grid created earlier, and that setup-phase collectives (before the
        ledger is attached) are not counted — only the per-iteration
        communication the paper's analysis talks about.
        """
        if self._ledger is not None:
            return self._ledger
        if self._parent is not None:
            return self._parent.ledger
        return None

    def attach_ledger(self, ledger: Optional[CostLedger]) -> None:
        """Attach (or detach, with None) a cost ledger recording collective volume."""
        self._ledger = ledger

    @property
    def workspace(self) -> CollectiveWorkspace:
        """This rank's reusable collective output buffers (lazily created).

        Pass ``workspace.get(name, shape)`` as the ``out=`` argument of
        :meth:`allreduce`, :meth:`reduce_scatter` or :meth:`allgatherv` to
        make the per-iteration collectives allocation-free.
        """
        if self._workspace is None:
            self._workspace = CollectiveWorkspace()
        return self._workspace

    @staticmethod
    def _validate_out(
        out: Optional[np.ndarray],
        array: np.ndarray,
        expected_shape: Optional[Tuple[int, ...]] = None,
    ) -> None:
        """Validate a caller-provided ``out`` buffer *before* any movement.

        Raising before the first deposit or send keeps the failure symmetric
        across ranks (every rank rejects its own bad buffer) and the
        communicator usable afterwards; an exception in mid-movement would
        leave deposit slots or mailboxes in an undefined state.

        Checks: ``out`` must not alias the input (peers read the deposited
        input while the result is written), must match ``expected_shape``
        when the result shape is known up front, and must be able to hold
        the contribution's dtype without loss.
        """
        if out is None:
            return
        if np.shares_memory(out, array):
            raise CommunicatorError(
                "out buffer must not share memory with the input array: peers "
                "read the input while the result is being written"
            )
        if expected_shape is not None and out.shape != tuple(expected_shape):
            raise CommunicatorError(
                f"out buffer has shape {out.shape}, expected {tuple(expected_shape)}"
            )
        _require_safe_cast(array.dtype, out, "contribution")

    @classmethod
    def _validate_gather_out(
        cls, out: Optional[np.ndarray], array: np.ndarray, axis: int
    ) -> None:
        """:meth:`_validate_out` for a gather that concatenates along ``axis``.

        The axis length of the result depends on every rank's block and is
        only checkable after the gather, but the rank and the other
        dimensions are known up front.
        """
        cls._validate_out(out, array)
        if out is None:
            return
        norm_axis = axis % array.ndim if array.ndim else 0
        if out.ndim != array.ndim or any(
            out.shape[d] != array.shape[d] for d in range(array.ndim) if d != norm_axis
        ):
            raise CommunicatorError(
                f"out buffer shape {out.shape} is incompatible with "
                f"gathered blocks of shape {array.shape} along axis {axis}"
            )

    def _scatter_counts(
        self,
        array: np.ndarray,
        counts: Optional[Sequence[int]],
        axis: int,
        out: Optional[np.ndarray],
    ) -> List[int]:
        """The validated split of a reduce-scatter (and its ``out`` check).

        Omitted ``counts`` split the axis as evenly as possible, first
        ``remainder`` blocks one element larger.
        """
        length = array.shape[axis]
        if counts is None:
            base, rem = divmod(length, self.size)
            counts = [base + (1 if r < rem else 0) for r in range(self.size)]
        counts = [int(c) for c in counts]
        if len(counts) != self.size:
            raise CommunicatorError(
                f"counts must have length {self.size}, got {len(counts)}"
            )
        if sum(counts) != length:
            raise CommunicatorError(
                f"counts sum to {sum(counts)} but axis {axis} has length {length}"
            )
        expected_shape = list(array.shape)
        expected_shape[axis] = counts[self.rank]
        self._validate_out(out, array, expected_shape=tuple(expected_shape))
        return counts

    @contextlib.contextmanager
    def _compute_phase(self):
        """The read/compute window between a collective's two barriers.

        Opens with the post-deposit barrier and guarantees the closing
        barrier runs even if the compute raises — otherwise peers blocked in
        the closing ``wait()`` would wait for the failing rank's abort (the
        thread backend's barriers have no timeout).  If the closing barrier itself
        fails during unwinding (e.g. a peer aborted concurrently), the
        original exception is the one that propagates.
        """
        self._state.wait()
        try:
            yield
        except BaseException:
            try:
                self._state.wait()
            except Exception:
                pass
            raise
        self._state.wait()

    def _record(self, operation: str, n_words: float) -> None:
        if self._silent or self.size == 1:  # a singleton moves nothing
            return
        ledger = self.ledger
        if ledger is not None:
            ledger.record(operation, self.size, n_words)

    @contextlib.contextmanager
    def _silenced(self):
        """Temporarily suppress ledger recording on this communicator."""
        was_silent = self._silent
        self._silent = True
        try:
            yield
        finally:
            self._silent = was_silent

    # -- synchronization ---------------------------------------------------
    def barrier(self) -> None:
        """Block until all ranks of this communicator reach the barrier."""
        if self.size > 1:
            self._state.wait()

    # -- point-to-point ----------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send ``obj`` to local rank ``dest`` (buffered, non-blocking)."""
        if not 0 <= dest < self.size:
            raise CommunicatorError(f"dest {dest} out of range for size {self.size}")
        if dest == self.rank:
            raise CommunicatorError("send to self is not supported; use local data directly")
        box = self._state.mailbox(self.rank, dest)
        # An in-process mailbox hands the receiver this very object, so an
        # array is snapshotted; one that serializes on put already has.
        if isinstance(obj, np.ndarray) and not getattr(box, "serializes", False):
            obj = obj.copy()
        box.put((tag, obj))
        self._record("send", _nwords(obj))

    def recv(self, source: int, tag: int = 0, timeout: Optional[float] = None) -> Any:
        """Receive the next message from ``source`` with matching ``tag``.

        Without ``timeout`` the wait is bounded by the group state's
        ``recv_timeout`` — the backend's own limit, so the receives inside a
        point-to-point collective give up when its barriers would.
        """
        if not 0 <= source < self.size:
            raise CommunicatorError(f"source {source} out of range for size {self.size}")
        if timeout is None:
            timeout = self._state.recv_timeout
        box = self._state.mailbox(source, self.rank)
        try:
            got_tag, payload = box.get(timeout=timeout)
        except queue.Empty as exc:
            raise CommunicatorError(
                f"recv timed out after {timeout:g}s: destination rank {self.rank} "
                f"waiting for a message from source rank {source} with tag {tag} "
                f"(communicator size {self.size}); the sender likely crashed, "
                "deadlocked, or never reached the matching send"
            ) from exc
        if got_tag != tag:
            raise CommunicatorError(
                f"rank {self.rank}: expected tag {tag} from {source}, got {got_tag}"
            )
        return payload

    # -- movement: the two primitives every collective is written against -----
    @contextlib.contextmanager
    def _from_all(self, value: Any):
        """Every rank's ``value``, in rank order, readable until the block exits.

        Over slots the peers' entries are views of their deposits — valid only
        between the collective's two barriers, so whatever outlives the block
        must be copied out of them inside it.
        """
        if self.size == 1:
            yield [value]
        elif self._p2p:
            from repro.comm.collectives import recursive_doubling_allgather

            with self._silenced():
                values = recursive_doubling_allgather(self, value)
            yield values
        else:
            slots = self._state.slots
            slots[self.rank] = value
            with self._compute_phase():
                yield [value if r == self.rank else slots[r] for r in range(self.size)]

    @contextlib.contextmanager
    def _own_slices(self, array: np.ndarray, counts: Sequence[int], axis: int):
        """The ``p`` slices of this rank's index, in rank order, until the block exits.

        Slice ``r`` of an array is its ``counts[r]`` entries along ``axis``
        after the first ``sum(counts[:r])``; every rank passes an identically
        shaped ``array`` and gets each rank's slice number ``self.rank``.
        """
        if self._p2p:
            from repro.comm.collectives import slice_exchange

            with self._silenced():
                pieces = slice_exchange(self, array, counts, axis)
            yield pieces
        else:
            lo = sum(counts[: self.rank])
            index: List[Any] = [slice(None)] * array.ndim
            index[axis] = slice(lo, lo + counts[self.rank])
            slots = self._state.slots
            slots[self.rank] = array
            with self._compute_phase():
                yield [slots[r][tuple(index)] for r in range(self.size)]

    @staticmethod
    def _detach(value: Any) -> Any:
        """Copy an ndarray gathered from a peer before it escapes.

        A gathered value may be a view of a buffer the peer reuses for its
        next deposit (the process backend's shared-memory segments) or the
        peer's own array (an in-process mailbox), so any array that outlives
        the collective must be detached.  Non-array objects keep reference
        semantics (the object collectives' pickle-style contract).
        """
        return value.copy() if isinstance(value, np.ndarray) else value

    # -- collectives: validate, move, one rank-order combine, one ledger entry --
    def allgather_object(self, obj: Any) -> List[Any]:
        """Gather one arbitrary Python object from every rank (returned in rank order)."""
        with self._from_all(obj) as values:
            gathered = [
                obj if r == self.rank else self._detach(v) for r, v in enumerate(values)
            ]
        self._record("all_gather", _nwords(obj) * self.size)
        return gathered

    def allgatherv(
        self, array: np.ndarray, axis: int = 0, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """All-gather and concatenate along ``axis`` (blocks may differ in size).

        With ``out`` the concatenated result is written into the provided
        buffer (avoiding the concatenation allocation) and ``out`` is
        returned; its shape must equal the concatenated shape.  On a size-1
        communicator ``out`` is validated and then left alone: the result is
        ``array`` itself (see the module docstring), here and in
        :meth:`allreduce` and :meth:`reduce_scatter`.
        """
        array = np.asarray(array)
        self._validate_gather_out(out, array, axis)
        if self.size == 1:
            if out is not None and out.shape != array.shape:
                raise CommunicatorError(
                    f"out buffer shape {out.shape} does not match the "
                    f"gathered result of shape {array.shape}"
                )
            return array
        with self._from_all(array) as parts:
            if out is not None:
                _require_safe_cast(np.result_type(*parts), out, "gathered")
            try:
                result = np.concatenate(parts, axis=axis, out=out)
            except ValueError as exc:
                if out is None:
                    raise
                raise CommunicatorError(
                    f"out buffer shape {out.shape} does not match the "
                    f"gathered result: {exc}"
                ) from exc
            words = sum(_nwords(part) for part in parts)
        self._record("all_gather", words)
        return result

    def allreduce(self, array: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """All-reduce: every rank receives the elementwise sum over ranks.

        With ``out`` the reduction is computed into the provided buffer
        (which is returned) instead of a fresh allocation; ``out`` must not
        alias ``array``.

        Every rank's whole contribution is moved and combined locally —
        ``(p-1) · n`` words where a reduce-scatter + all-gather would move
        ``2 (p-1)/p · n``: the all-reduces of Algorithms 2 and 3 carry
        ``k × k`` Grams and scalars, which are latency-bound.
        """
        array = np.asarray(array)
        self._validate_out(out, array, expected_shape=array.shape)
        if self.size == 1:
            return array
        with self._from_all(array) as parts:
            result = rank_order_sum(parts, out=out)
        self._record("all_reduce", _nwords(array))
        return result

    def allreduce_scalar(self, value: float) -> float:
        """All-reduce (sum) a single scalar (used for objective values and norms)."""
        return float(self.allreduce(np.asarray([float(value)]))[0])

    def reduce_scatter(
        self,
        array: np.ndarray,
        counts: Optional[Sequence[int]] = None,
        axis: int = 0,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Reduce-scatter: sum arrays over ranks, split the sum along ``axis``.

        Every rank contributes an identically shaped ``array``; after the
        call, rank ``r`` owns the ``r``-th block (of size ``counts[r]`` along
        ``axis``) of the elementwise sum.  If ``counts`` is omitted the
        axis is split as evenly as possible (first ``remainder`` blocks one
        element larger), matching
        :func:`repro.dist.partition.block_counts` — so a count-less
        reduce-scatter lands each rank exactly on the block that
        :mod:`repro.dist` assigns it.

        With ``out`` the reduced block is computed into the provided buffer
        (which is returned); ``out`` must not alias ``array``.
        """
        array = np.asarray(array)
        counts = self._scatter_counts(array, counts, axis, out)
        if self.size == 1:
            return array
        with self._own_slices(array, counts, axis) as pieces:
            result = rank_order_sum(pieces, out=out)
        self._record("reduce_scatter", _nwords(array))
        return result

    # -- collective handles ---------------------------------------------------
    def ensure_nonblocking(self) -> bool:
        """Nothing to prepare: every handle completes at issue.

        Returns False ("no background engine is running"), always.  Kept, with
        :meth:`shutdown_nonblocking`, because the benchmark harness calls both;
        they go when its call sites do.
        """
        return False

    def shutdown_nonblocking(self) -> None:
        """Nothing to stop (see :meth:`ensure_nonblocking`).  Idempotent."""

    def iallgatherv(
        self, array: np.ndarray, axis: int = 0, out: Optional[np.ndarray] = None
    ) -> CommHandle:
        """:meth:`allgatherv` behind a :class:`CommHandle` (complete on return)."""
        return CommHandle(self.allgatherv(array, axis=axis, out=out))

    def iallreduce(self, array: np.ndarray, out: Optional[np.ndarray] = None) -> CommHandle:
        """:meth:`allreduce` behind a :class:`CommHandle` (complete on return)."""
        return CommHandle(self.allreduce(array, out=out))

    # -- communicator management --------------------------------------------
    def split(self, color: int, key: Optional[int] = None) -> "Comm":
        """Partition the communicator into sub-communicators by ``color``.

        All ranks must call ``split``; ranks sharing a ``color`` end up in the
        same sub-communicator, ordered by ``key`` (default: current rank).
        This is how the processor grid builds its row and column
        communicators.
        """
        if key is None:
            key = self.rank
        self._split_count += 1
        split_id = self._split_count
        info = self.allgather_object((int(color), int(key), self.rank))
        members = sorted(
            [(k, r) for (c, k, r) in info if c == int(color)], key=lambda kr: (kr[0], kr[1])
        )
        group_local_ranks = [r for _, r in members]
        new_rank = group_local_ranks.index(self.rank)
        group_world_ranks = tuple(self._group_ranks[r] for r in group_local_ranks)

        with self._state.lock:
            reg_key = ("split", split_id, int(color))
            sub_state = self._state.registry.get(reg_key)
            if sub_state is None:
                # The state decides its own subgroup type, so sub-communicators
                # stay on the same backend (thread, lockstep, process, ...) as
                # their parent.  The member list and registry key give
                # cross-process states a globally agreed group identity.
                sub_state = self._state.make_subgroup(
                    len(group_local_ranks),
                    members=tuple(group_local_ranks),
                    reg_key=reg_key,
                )
                self._state.registry[reg_key] = sub_state
        # Make sure every rank observed its sub-state before anyone proceeds.
        self.barrier()
        return Comm(
            state=sub_state, rank=new_rank, group_ranks=group_world_ranks, parent=self
        )


class SelfComm(Comm):
    """A size-1 communicator for running the parallel code paths sequentially."""

    def __init__(self, ledger: Optional[CostLedger] = None):
        super().__init__(SharedGroupState(1), rank=0, group_ranks=(0,), ledger=ledger)
