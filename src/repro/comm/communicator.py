"""The MPI-like communicator used by the parallel NMF algorithms.

:class:`Comm` exposes the subset of MPI that Algorithms 2 and 3 of the paper
need — the three collectives of §2.3 (``allgather`` plus a concatenating
``allgatherv``, ``reduce_scatter``, ``allreduce``), their nonblocking twins,
point-to-point ``send``/``recv``, ``barrier`` and ``split`` — with
numpy-buffer semantics matching mpi4py's uppercase, buffer-based API (the
fast path the mpi4py tutorial recommends for array data).

A collective is *movement* plus a *rank-order combine*, and each is written
once.  The body validates, moves, and then runs one ``np.concatenate`` or one
:meth:`ReduceOp.combine` over the contributions in rank order — so every rank,
on every backend and in every completion mode, computes bitwise-identical
results.  Movement is one of two private primitives (:meth:`Comm._from_all`:
every rank's value; :meth:`Comm._own_slices`: the ``p`` slices of my index),
and a communicator picks how to move from what it can observe:

* **slots** — its group state has deposit slots
  (:class:`~repro.comm.backends.base.SharedGroupState`): deposit, barrier,
  read the peers' deposits as views, barrier again so no rank can start the
  next collective while a peer is still reading;
* **p2p** — the state has none (``socket``, ``mpi``), or the communicator is
  a nonblocking helper's shadow: the two byte movers of
  :mod:`repro.comm.collectives` over ``send``/``recv``, silenced on the
  ledger.

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
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.backends.base import SharedGroupState
from repro.comm.cost import CostLedger
from repro.comm.nonblocking import CommHandle, _AsyncHandle, _EagerHandle, _HelperRunner
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
        # How collectives move (see the module docstring): point-to-point when
        # the state has no deposit slots; _make_shadow also sets it on a
        # helper thread's shadow, which must keep off its issuer's slots.
        self._p2p = state.slots is None
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
        if self._silent or self.size == 1:  # a singleton moves nothing
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
        blocking call would have recorded (nothing, on a singleton
        communicator).
        """
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

    def sendrecv(self, obj: Any, dest: int, source: int, tag: int = 0) -> Any:
        """Combined send to ``dest`` and receive from ``source`` (deadlock-free)."""
        self.send(obj, dest, tag=tag)
        return self.recv(source, tag=tag)

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
        if self.size == 1:
            yield [array]
        elif self._p2p:
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

    def allgather(self, array: np.ndarray) -> List[np.ndarray]:
        """All-gather: every rank receives the list of all ranks' arrays."""
        array = np.asarray(array)
        with self._from_all(array) as parts:
            gathered = [
                array if r == self.rank else self._detach(part)
                for r, part in enumerate(parts)
            ]
        self._record("all_gather", sum(_nwords(g) for g in gathered))
        return gathered

    def allgatherv(
        self, array: np.ndarray, axis: int = 0, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """All-gather and concatenate along ``axis`` (blocks may differ in size).

        With ``out`` the concatenated result is written into the provided
        buffer (avoiding the concatenation allocation) and ``out`` is
        returned; its shape must equal the concatenated shape.
        """
        array = np.asarray(array)
        self._validate_gather_out(out, array, axis)
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

        Every rank's whole contribution is moved and combined locally —
        ``(p-1) · n`` words where a reduce-scatter + all-gather would move
        ``2 (p-1)/p · n``: the all-reduces of Algorithms 2 and 3 carry
        ``k × k`` Grams and scalars, which are latency-bound.
        """
        array = np.asarray(array)
        self._validate_out(out, array, expected_shape=array.shape)
        with self._from_all(array) as parts:
            result = op.combine(parts, out=out)
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
        with self._own_slices(array, counts, axis) as pieces:
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
        communicator alive forever).  It moves point-to-point whatever the
        backend: its mailboxes are its own, while deposit slots may be the
        issuing rank's (the process backend has one segment per rank).
        """
        with self._silenced():
            shadow = self.split(color=0, key=self.rank)
        shadow._silent = True
        shadow._parent = None
        shadow._p2p = True
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
        ledger_op: str,
        array: np.ndarray,
        out: Optional[np.ndarray],
        collective: Callable[["Comm", np.ndarray], np.ndarray],
        words: Optional[float] = None,
        record: bool = True,
    ) -> CommHandle:
        """Shared issue path: ``collective(comm, array)`` now, or on the helper.

        ``collective`` is the blocking body; eager, it runs on this
        communicator (and books its own ledger entry); helped, it runs on
        the silent shadow over a snapshot of ``array`` and the handle books
        ``ledger_op`` when it completes — with ``words``, or without them the
        size of the result (a gather's, in elements of the input's width).

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
                with contextlib.nullcontext() if record else self._silenced():
                    result = collective(self, array)
            except BaseException:
                if unpin is not None:
                    unpin()
                raise
            return _EagerHandle(op, tag, result, time.perf_counter() - start, unpin=unpin)
        self.ensure_nonblocking()
        itemsize = array.itemsize  # the handle must not keep ``array`` alive

        def book(result: np.ndarray) -> None:
            self._record(ledger_op, result.size * itemsize / 8.0 if words is None else words)

        handle = _AsyncHandle(op, tag, unpin=unpin, record=book if record else None)
        snapshot = array.copy()
        self._nb_runner.submit(handle, lambda shadow: collective(shadow, snapshot))
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
        self._validate_gather_out(out, array, axis)
        return self._issue(
            "iallgatherv",
            "all_gather",
            array,
            out,
            lambda comm, block: comm.allgatherv(block, axis=axis, out=out),
        )

    def iallreduce(
        self,
        array: np.ndarray,
        op: ReduceOp = ReduceOp.SUM,
        out: Optional[np.ndarray] = None,
        record: bool = True,
    ) -> CommHandle:
        """Nonblocking :meth:`allreduce`; returns a :class:`CommHandle`.

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
            "all_reduce",
            array,
            out,
            lambda comm, block: comm.allreduce(block, op=op, out=out),
            words=_nwords(array),
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
            "reduce_scatter",
            array,
            out,
            lambda comm, block: comm.reduce_scatter(
                block, counts=counts, axis=axis, op=op, out=out
            ),
            words=_nwords(array),
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
        return Comm(
            state=sub_state, rank=new_rank, group_ranks=group_world_ranks, parent=self
        )

    def dup(self) -> "Comm":
        """Return a communicator over the same group with fresh shared state."""
        return self.split(color=0, key=self.rank)


class SelfComm(Comm):
    """A size-1 communicator for running the parallel code paths sequentially."""

    def __init__(self, ledger: Optional[CostLedger] = None):
        super().__init__(SharedGroupState(1), rank=0, group_ranks=(0,), ledger=ledger)
