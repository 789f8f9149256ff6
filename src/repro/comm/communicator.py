"""The MPI-like communicator used by the parallel NMF algorithms.

:class:`Comm` exposes the subset of MPI that Algorithms 2 and 3 of the paper
need — point-to-point ``send``/``recv``, ``barrier``, ``bcast``, ``gather``,
``scatter``, ``allgather`` (plus a concatenating ``allgatherv``),
``reduce_scatter``, ``allreduce`` and ``split`` — with numpy-buffer semantics
matching mpi4py's uppercase, buffer-based API (the fast path the mpi4py
tutorial recommends for array data).

Collectives follow a deposit / barrier / compute / barrier protocol on the
shared slots of the group's :class:`~repro.comm.backends.base.SharedGroupState`:
every rank deposits its contribution, waits, reads the contributions of all
ranks to compute its own result, and waits again so no rank can start the
next collective while a peer is still reading.  Reductions are evaluated in
rank order on every rank, so all ranks observe bitwise-identical results
(deterministic independent of thread scheduling).

Each communicator can carry a :class:`~repro.comm.cost.CostLedger`; every
collective then records the number of words and messages the *optimal* MPI
algorithm for that collective would move (the §2.3 expressions), which is the
quantity the paper's analysis — and our tests — reason about.
"""

from __future__ import annotations

import contextlib
import enum
import queue
import time
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.backends.base import SharedGroupState
from repro.comm.cost import CostLedger
from repro.comm.nonblocking import (
    CommHandle,
    _allgatherv_body,
    _allreduce_body,
    _AsyncHandle,
    _EagerHandle,
    _HelperRunner,
    _reduce_scatter_body,
)
from repro.comm.workspace import CollectiveWorkspace
from repro.util.errors import CommunicatorError


def _require_safe_cast(src_dtype, out: np.ndarray, what: str) -> None:
    """Reject an ``out`` buffer whose dtype cannot hold ``src_dtype`` losslessly."""
    if not np.can_cast(src_dtype, out.dtype, casting="safe"):
        raise CommunicatorError(
            f"out buffer dtype {out.dtype} cannot hold the {what} "
            f"dtype {src_dtype} without loss"
        )


class ReduceOp(str, enum.Enum):
    """Reduction operators supported by the reduce-style collectives."""

    SUM = "sum"
    MAX = "max"
    MIN = "min"
    PROD = "prod"

    def combine(
        self, arrays: Sequence[np.ndarray], out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Reduce ``arrays`` elementwise in rank order (deterministic).

        With ``out`` the reduction is written into the provided buffer (which
        is also returned) instead of a freshly allocated array; ``out`` must
        match the element shape and must not alias any input.
        """
        if not arrays:
            raise CommunicatorError("cannot reduce an empty sequence")
        stack = [np.asarray(a) for a in arrays]
        if out is None:
            out = stack[0].astype(np.result_type(*stack), copy=True)
        else:
            if out.shape != stack[0].shape:
                raise CommunicatorError(
                    f"out buffer has shape {out.shape}, expected {stack[0].shape}"
                )
            _require_safe_cast(np.result_type(*stack), out, "reduction")
            np.copyto(out, stack[0])
        for a in stack[1:]:
            if self is ReduceOp.SUM:
                out += a
            elif self is ReduceOp.MAX:
                np.maximum(out, a, out=out)
            elif self is ReduceOp.MIN:
                np.minimum(out, a, out=out)
            elif self is ReduceOp.PROD:
                out *= a
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
        # Nonblocking-collective state: shadow-communicator traffic must
        # never hit the ledger (_silent), handles get a per-communicator
        # issue tag (_nb_seq), and helper-mode backends lazily get one
        # daemon runner thread (_nb_runner) unless the caller asked for
        # eager completion (_nb_eager).
        self._silent = False
        self._nb_seq = 0
        self._nb_eager = False
        self._nb_runner: Optional[_HelperRunner] = None

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
    def group_ranks(self) -> Tuple[int, ...]:
        """World ranks of the members of this communicator, in local-rank order."""
        return self._group_ranks

    def __repr__(self) -> str:
        return f"Comm(rank={self.rank}, size={self.size})"

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
        """Validate a caller-provided ``out`` buffer *before* any deposit.

        Raising before the first barrier keeps the failure symmetric across
        ranks (every rank rejects its own bad buffer) and the communicator
        usable afterwards; an exception between the two barriers of a
        collective would leave the deposit slots in an undefined state.

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

    @staticmethod
    def _copy_result(out: np.ndarray, array: np.ndarray) -> np.ndarray:
        """Copy ``array`` into ``out`` with the same safe-cast rule as combine.

        Used by the size-1 fast paths so a lossy ``out`` dtype is rejected
        identically regardless of communicator size.
        """
        array = np.asarray(array)
        _require_safe_cast(array.dtype, out, "result")
        np.copyto(out, array)
        return out

    @contextlib.contextmanager
    def _compute_phase(self):
        """The read/compute window between a collective's two barriers.

        Opens with the post-deposit barrier and guarantees the closing
        barrier runs even if the compute raises — otherwise peers blocked in
        the closing ``wait()`` would hang forever (the thread backend's
        barriers have no timeout, and a worker failure only aborts the world
        state, not sub-communicator states).  If the closing barrier itself
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
        if self._silent:
            return
        ledger = self.ledger
        if ledger is not None:
            ledger.record(operation, self.size, n_words)

    def record_collective(self, operation: str, n_words: float) -> None:
        """Record one modeled §2.3 collective on the attached ledger.

        This is the explicit booking entry used by callers that *silence* a
        group of physical collectives standing in for one modeled operation —
        the panel-streamed reduce-scatter issues one ``ireduce_scatter`` per
        panel with ``record=False`` and then books a single monolithic entry
        here, so the ledger carries exactly the call/word/message totals the
        blocking call would have recorded.  Mirrors the blocking collectives'
        size-1 fast path (nothing is recorded on a singleton communicator).
        """
        if self.size > 1:
            self._record(operation, n_words)

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

    def recv(self, source: int, tag: int = 0, timeout: float = 60.0) -> Any:
        """Receive the next message from ``source`` with matching ``tag``."""
        if not 0 <= source < self.size:
            raise CommunicatorError(f"source {source} out of range for size {self.size}")
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

    def sendrecv(self, obj: Any, dest: int, source: int, tag: int = 0) -> Any:
        """Combined send to ``dest`` and receive from ``source`` (deadlock-free)."""
        self.send(obj, dest, tag=tag)
        return self.recv(source, tag=tag)

    @staticmethod
    def _detach(value: Any) -> Any:
        """Copy an ndarray read from a peer's deposit slot before it escapes.

        Slot reads may be views of a buffer the peer reuses for its next
        deposit (the process backend's shared-memory segments), so any array
        that outlives the collective's closing barrier must be detached.
        Non-array objects keep reference semantics (the object collectives'
        pickle-style contract).
        """
        return value.copy() if isinstance(value, np.ndarray) else value

    # -- object collectives (pickle-style, small metadata only) -------------
    def allgather_object(self, obj: Any) -> List[Any]:
        """Gather one arbitrary Python object from every rank (returned in rank order)."""
        if self.size == 1:
            return [obj]
        self._state.slots[self.rank] = obj
        with self._compute_phase():
            out = [
                obj if r == self.rank else self._detach(self._state.slots[r])
                for r in range(self.size)
            ]
        self._record("all_gather", _nwords(obj) * self.size)
        return out

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root`` to all ranks."""
        if self.size == 1:
            return obj
        if self.rank == root:
            self._state.slots[root] = obj
        with self._compute_phase():
            # The root hands back the caller's own object; peers detach their
            # slot read so it cannot alias the root's next deposit.
            value = obj if self.rank == root else self._detach(self._state.slots[root])
        self._record("broadcast", _nwords(value))
        return value

    # -- array collectives ---------------------------------------------------
    def allgather(self, array: np.ndarray) -> List[np.ndarray]:
        """All-gather: every rank receives the list of all ranks' arrays."""
        array = np.asarray(array)
        if self.size == 1:
            return [array]
        self._state.slots[self.rank] = array
        with self._compute_phase():
            gathered = [np.asarray(self._state.slots[r]).copy() if r != self.rank else array
                        for r in range(self.size)]
        total_words = sum(_nwords(g) for g in gathered)
        self._record("all_gather", total_words)
        return gathered

    def allgatherv(
        self, array: np.ndarray, axis: int = 0, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """All-gather and concatenate along ``axis`` (blocks may differ in size).

        With ``out`` the concatenated result is written into the provided
        buffer (avoiding both the per-block copies and the concatenation
        allocation) and ``out`` is returned; its shape must equal the
        concatenated shape.
        """
        array = np.asarray(array)
        self._validate_out(out, array)
        if out is not None:
            # The axis length of the result depends on every rank's block and
            # is only checkable after the gather, but the rank and the other
            # dimensions are known now — reject bad buffers before any
            # deposit so the failure is symmetric across ranks.
            norm_axis = axis % array.ndim if array.ndim else 0
            if out.ndim != array.ndim or any(
                out.shape[d] != array.shape[d]
                for d in range(array.ndim)
                if d != norm_axis
            ):
                raise CommunicatorError(
                    f"out buffer shape {out.shape} is incompatible with "
                    f"gathered blocks of shape {array.shape} along axis {axis}"
                )
        if self.size == 1:
            if out is None:
                return array
            if out.shape != array.shape:
                raise CommunicatorError(
                    f"out buffer has shape {out.shape}, expected {array.shape}"
                )
            return self._copy_result(out, array)
        if out is None:
            return np.concatenate(self.allgather(array), axis=axis)
        # Concatenate straight from the deposit slots into the caller's
        # buffer: between the two barriers peers cannot mutate their deposits,
        # so the intermediate per-block copies of allgather() are unnecessary.
        self._state.slots[self.rank] = array
        with self._compute_phase():
            parts = [np.asarray(self._state.slots[r]) for r in range(self.size)]
            _require_safe_cast(np.result_type(*parts), out, "gathered")
            try:
                np.concatenate(parts, axis=axis, out=out)
            except ValueError as exc:
                raise CommunicatorError(
                    f"out buffer shape {out.shape} does not match the "
                    f"gathered result: {exc}"
                ) from exc
        self._record("all_gather", sum(_nwords(p) for p in parts))
        return out

    def gather(self, array: np.ndarray, root: int = 0) -> Optional[List[np.ndarray]]:
        """Gather arrays on ``root``; other ranks receive ``None``."""
        array = np.asarray(array)
        if self.size == 1:
            return [array]
        self._state.slots[self.rank] = array
        with self._compute_phase():
            result = None
            if self.rank == root:
                result = [np.asarray(self._state.slots[r]).copy() for r in range(self.size)]
        self._record("gather", _nwords(array) * self.size)
        return result

    def scatter(self, arrays: Optional[Sequence[np.ndarray]], root: int = 0) -> np.ndarray:
        """Scatter a per-rank list from ``root``; returns this rank's element."""
        if self.size == 1:
            assert arrays is not None
            return np.asarray(arrays[0])
        if self.rank == root:
            if arrays is None or len(arrays) != self.size:
                raise CommunicatorError(
                    f"root must provide exactly {self.size} arrays to scatter"
                )
            self._state.slots[root] = [np.asarray(a) for a in arrays]
        with self._compute_phase():
            mine = np.asarray(self._state.slots[root][self.rank]).copy()
        self._record("scatter", _nwords(mine) * self.size)
        return mine

    def reduce(self, array: np.ndarray, root: int = 0, op: ReduceOp = ReduceOp.SUM
               ) -> Optional[np.ndarray]:
        """Reduce arrays elementwise onto ``root``; other ranks receive ``None``."""
        array = np.asarray(array)
        if self.size == 1:
            return array.copy()
        self._state.slots[self.rank] = array
        with self._compute_phase():
            result = None
            if self.rank == root:
                result = op.combine(
                    [np.asarray(self._state.slots[r]) for r in range(self.size)]
                )
        self._record("reduce", _nwords(array))
        return result

    def allreduce(
        self,
        array: np.ndarray,
        op: ReduceOp = ReduceOp.SUM,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """All-reduce: every rank receives the elementwise reduction over ranks.

        With ``out`` the reduction is computed into the provided buffer
        (which is returned) instead of a fresh allocation; ``out`` must not
        alias ``array``.
        """
        array = np.asarray(array)
        self._validate_out(out, array, expected_shape=array.shape)
        if self.size == 1:
            if out is None:
                return array.copy()
            return self._copy_result(out, array)
        self._state.slots[self.rank] = array
        with self._compute_phase():
            result = op.combine(
                [np.asarray(self._state.slots[r]) for r in range(self.size)], out=out
            )
        self._record("all_reduce", _nwords(array))
        return result

    def allreduce_scalar(self, value: float, op: ReduceOp = ReduceOp.SUM) -> float:
        """All-reduce a single scalar (used for objective values and norms)."""
        return float(self.allreduce(np.asarray([float(value)]), op=op)[0])

    def reduce_scatter(
        self,
        array: np.ndarray,
        counts: Optional[Sequence[int]] = None,
        axis: int = 0,
        op: ReduceOp = ReduceOp.SUM,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Reduce-scatter: sum arrays over ranks, split the sum along ``axis``.

        Every rank contributes an identically shaped ``array``; after the
        call, rank ``r`` owns the ``r``-th block (of size ``counts[r]`` along
        ``axis``) of the elementwise reduction.  If ``counts`` is omitted the
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
            if out is None:
                return array.copy()
            return self._copy_result(out, array)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        self._state.slots[self.rank] = array
        with self._compute_phase():
            lo, hi = offsets[self.rank], offsets[self.rank + 1]
            index: List[Any] = [slice(None)] * array.ndim
            index[axis] = slice(lo, hi)
            index = tuple(index)
            pieces = [np.asarray(self._state.slots[r])[index] for r in range(self.size)]
            result = op.combine(pieces, out=out)
        self._record("reduce_scatter", _nwords(array))
        return result

    # -- nonblocking collectives ---------------------------------------------
    @property
    def _nonblocking_eager(self) -> bool:
        """Whether handles complete at issue time on this substrate.

        True for size-1 communicators (nothing to overlap), for group
        states that declare ``nonblocking_mode == "eager"`` (lockstep, whose
        deterministic baton schedule must not gain helper threads), and when
        the caller asked for it with ``ensure_nonblocking(eager=True)``.
        """
        if self.size == 1 or self._nb_eager:
            return True
        return getattr(self._state, "nonblocking_mode", "helper") == "eager"

    def _next_nb_tag(self) -> int:
        self._nb_seq += 1
        return self._nb_seq

    def _pin_out(self, out: Optional[np.ndarray], op: str, tag: int):
        """Pin ``out`` in this rank's workspace for a handle's lifetime.

        Returns the unpin callback for the handle (or ``None`` when ``out``
        is absent or not a workspace buffer).  Pinning happens on every
        backend — including eager ones, where the data is already in place —
        so the reuse-hazard error triggers identically everywhere.
        """
        if out is None or self._workspace is None:
            return None
        name = self._workspace.pin_matching(out, rank=self.rank, op=op, tag=tag)
        if name is None:
            return None
        workspace = self._workspace
        return lambda: workspace.unpin(name)

    def _make_shadow(self) -> "Comm":
        """Collectively create the silent transport communicator for a helper.

        The split's own setup collective must not be counted either, so this
        communicator is temporarily silenced during the split; the shadow is
        permanently silent and detached from the parent chain (the helper
        thread holds it, and a parent reference would keep the issuing
        communicator alive forever).
        """
        with self._silenced():
            shadow = self.split(color=0, key=self.rank)
        shadow._silent = True
        shadow._parent = None
        return shadow

    def ensure_nonblocking(self, eager: bool = False) -> bool:
        """Collectively prepare this communicator for nonblocking collectives.

        On helper-mode backends this creates the silent shadow communicator
        (a collective operation — every rank must call this at the same
        point) and starts the daemon runner thread; call it during setup,
        before attaching a ledger, so first use inside a timed loop pays no
        hidden split.  Eager substrates and size-1 communicators need no
        preparation.  ``eager=True`` (every rank alike) makes this
        communicator eager until :meth:`shutdown_nonblocking`: handles
        complete at issue through the native blocking collective, with no
        helper thread and no shadow split — how ``overlap=False`` runs the
        Algorithm 2/3 loops.  Returns True when a helper runner is active.
        """
        self._nb_eager = eager
        if self._nonblocking_eager:
            return False
        if self._nb_runner is None:
            self._nb_runner = _HelperRunner(self, self._make_shadow())
        return True

    def shutdown_nonblocking(self) -> None:
        """Drain and stop this communicator's helper thread (if any).

        Pending handles still complete (the runner finishes its queue before
        exiting) and remain waitable.  Idempotent; a later nonblocking call
        would lazily recreate the helper.  Also ends a requested eager mode.
        """
        self._nb_eager = False
        runner = self._nb_runner
        self._nb_runner = None
        if runner is not None:
            runner.shutdown()

    def _issue(
        self,
        op: str,
        blocking_call,
        body_factory,
        ledger_op: str,
        out: Optional[np.ndarray],
        record: bool = True,
    ) -> CommHandle:
        """Shared issue path: eager completion or helper submission.

        With ``record=False`` the operation leaves no ledger entry at all —
        the caller is expected to book one modeled collective for a whole
        group of physical ones via :meth:`record_collective` (the
        panel-streaming contract; see :mod:`repro.comm.panels`).
        """
        tag = self._next_nb_tag()
        unpin = self._pin_out(out, op, tag)
        if self._nonblocking_eager:
            start = time.perf_counter()
            try:
                if record:
                    result = blocking_call()
                else:
                    with self._silenced():
                        result = blocking_call()
            except BaseException:
                if unpin is not None:
                    unpin()
                raise
            return _EagerHandle(op, tag, result, time.perf_counter() - start, unpin=unpin)
        self.ensure_nonblocking()
        handle = _AsyncHandle(
            op,
            tag,
            unpin=unpin,
            record=(lambda words: self._record(ledger_op, words)) if record else None,
        )
        self._nb_runner.submit(handle, body_factory())
        return handle

    def iallgatherv(
        self, array: np.ndarray, axis: int = 0, out: Optional[np.ndarray] = None
    ) -> CommHandle:
        """Nonblocking :meth:`allgatherv`; returns a :class:`CommHandle`.

        The result (``handle.wait()``) is byte-identical to the blocking
        call's.  The input is snapshotted at issue, so the caller may
        overwrite ``array`` immediately; ``out`` must stay untouched until
        ``wait()`` (workspace buffers enforce this via pinning).
        """
        array = np.asarray(array)
        self._validate_out(out, array)
        if out is not None:
            norm_axis = axis % array.ndim if array.ndim else 0
            if out.ndim != array.ndim or any(
                out.shape[d] != array.shape[d]
                for d in range(array.ndim)
                if d != norm_axis
            ):
                raise CommunicatorError(
                    f"out buffer shape {out.shape} is incompatible with "
                    f"gathered blocks of shape {array.shape} along axis {axis}"
                )
        return self._issue(
            "iallgatherv",
            lambda: self.allgatherv(array, axis=axis, out=out),
            lambda: _allgatherv_body(array.copy(), axis, out),
            "all_gather",
            out,
        )

    def iallreduce(
        self,
        array: np.ndarray,
        op: ReduceOp = ReduceOp.SUM,
        out: Optional[np.ndarray] = None,
        record: bool = True,
    ) -> CommHandle:
        """Nonblocking :meth:`allreduce`; returns a :class:`CommHandle`.

        Byte-identical to the blocking call: the helper gathers the full
        contributions point-to-point and combines them in rank order, the
        same order the native collective uses.

        ``record=False`` suppresses this operation's ledger entry so a caller
        can book it via :meth:`record_collective` at the *blocking schedule's
        program point* instead of at completion time — keeping the ledger's
        per-entry accumulation order (and hence its floating-point sums)
        identical across schedules even while the operation is in flight past
        other collectives (the deferred error path of the pipelined loops).
        """
        array = np.asarray(array)
        self._validate_out(out, array, expected_shape=array.shape)
        return self._issue(
            "iallreduce",
            lambda: self.allreduce(array, op=op, out=out),
            lambda: _allreduce_body(array.copy(), op, out),
            "all_reduce",
            out,
            record=record,
        )

    def ireduce_scatter(
        self,
        array: np.ndarray,
        counts: Optional[Sequence[int]] = None,
        axis: int = 0,
        op: ReduceOp = ReduceOp.SUM,
        out: Optional[np.ndarray] = None,
        record: bool = True,
    ) -> CommHandle:
        """Nonblocking :meth:`reduce_scatter`; returns a :class:`CommHandle`.

        ``record=False`` suppresses this operation's ledger entry so a caller
        splitting one modeled reduce-scatter into per-panel pieces can book
        the single monolithic entry itself with :meth:`record_collective`
        (panel streaming, :mod:`repro.comm.panels`).
        """
        array = np.asarray(array)
        counts = self._scatter_counts(array, counts, axis, out)
        return self._issue(
            "ireduce_scatter",
            lambda: self.reduce_scatter(array, counts=counts, axis=axis, op=op, out=out),
            lambda: _reduce_scatter_body(array.copy(), counts, axis, op, out),
            "reduce_scatter",
            out,
            record=record,
        )

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
        return self._make_comm(
            state=sub_state,
            rank=new_rank,
            group_ranks=group_world_ranks,
            parent=self,
        )

    def _make_comm(
        self,
        state: SharedGroupState,
        rank: int,
        group_ranks: Tuple[int, ...],
        parent: "Comm",
    ) -> "Comm":
        """Construct the communicator :meth:`split` returns (subclass hook).

        Wire communicators (the socket backend's :class:`SocketComm`)
        override this so the row/column sub-communicators of the process
        grid — and the silent shadow communicators of the nonblocking
        helpers — keep the wire collectives rather than degrading to the
        slot-based base class.  Not simply ``type(self)`` because subclasses
        with different constructor signatures (:class:`SelfComm`) must not
        be re-instantiated blindly.
        """
        return Comm(state=state, rank=rank, group_ranks=group_ranks, parent=parent)

    def dup(self) -> "Comm":
        """Return a communicator over the same group with fresh shared state."""
        return self.split(color=0, key=self.rank)


class SelfComm(Comm):
    """A size-1 communicator for running the parallel code paths sequentially."""

    def __init__(self, ledger: Optional[CostLedger] = None):
        super().__init__(SharedGroupState(1), rank=0, group_ranks=(0,), ledger=ledger)
