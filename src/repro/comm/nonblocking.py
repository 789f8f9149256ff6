"""Nonblocking collectives: MPI-style request handles over the SPMD substrate.

:meth:`Comm.iallgatherv`, :meth:`Comm.iallreduce` and
:meth:`Comm.ireduce_scatter` return a :class:`CommHandle` immediately; the
collective completes in the background and the caller claims the result with
``wait()`` (blocking, idempotent) or polls with ``test()``.  This is the
primitive the Algorithm 2/3 loops are written against (one program; see
:mod:`repro.core.spmd_loop`): it is what lets the factor all-gathers hide
behind the opposite half-iteration's local compute (paper §4.3: the
collective terms are the dominant exposed cost once the local NLS is fast).

Completion mode — per communicator:

* ``"eager"``: the handle completes *at issue time* by running the blocking
  collective; its seconds are booked exposed, there is no helper thread and
  no shadow communicator.  Three reasons a communicator is eager: the group
  state declares it (``SharedGroupState.nonblocking_mode``); its size is 1
  (nothing to overlap); or the caller asked for it
  (``ensure_nonblocking(eager=True)`` — how ``overlap=False`` runs the loops
  strictly blocking).  The states that declare it: lockstep, whose scheduler
  must stay a deterministic single-runnable-rank baton pass to remain the
  byte-identical semantics oracle; mpi, where a helper would need
  ``MPI_THREAD_MULTIPLE``; and process (a forked group state that has
  shared-memory slots), where a collective is a copy and a combine by the
  rank's own CPU between two microsecond barriers — there is no network to
  progress in the background, and at one rank per core a helper thread only
  takes the core from the compute it was meant to hide behind (measured
  ``overlap_eff`` -1.6 ... -3.2 when it had one).
* ``"helper"`` (thread and socket backends otherwise): a
  per-communicator daemon thread runs **the same blocking body** on a *silent
  shadow communicator* (a ``split`` of the issuing communicator that never
  records ledger entries and always moves point-to-point; see
  :mod:`repro.comm.communicator`).  Progress is genuinely asynchronous
  wherever the transport releases the GIL — always on the socket backend,
  whose mailboxes are frames on a TCP mesh.

There is one body per collective, so a handle's result is byte-identical to
the blocking call's by construction, and what the helper physically moves is
what the ``socket`` backend moves.  The :class:`CostLedger` records *modeled*
optimal-collective volume either way: the handle books the operation name and
word count the blocking call would, on the issuing communicator, when it
completes — helper and eager runs produce identical ledgers.

One modeled collective may be carried by several physical handles: the
panel-streamed reduce-scatter (:mod:`repro.comm.panels`) issues one
``ireduce_scatter(record=False)`` per MM panel — suppressing the per-handle
ledger entry — and books a single :meth:`Comm.record_collective` with the
monolithic call's word count once the stream completes, so the ledger
shows one reduce-scatter of the full input.

Workspace safety
----------------
A handle that writes into a :attr:`Comm.workspace` buffer *pins* it for the
handle's lifetime; ``workspace.get`` on a pinned name raises
:class:`~repro.util.errors.WorkspacePinnedError` naming the issuing rank,
op, and tag instead of handing out a buffer the helper thread is still
filling.  ``wait()`` (or a successful ``test()``) unpins.
"""

from __future__ import annotations

import queue
import threading
import time
import weakref
from typing import Any, Callable, Optional, Sequence

from repro.comm.profiler import Profiler, TaskCategory

__all__ = ["CommHandle", "drain", "finish"]

_SHUTDOWN = object()


class CommHandle:
    """Request handle for an in-flight nonblocking collective.

    Mirrors the MPI request object: ``wait()`` blocks until the operation
    completed and returns the result array (idempotent — later calls return
    the same array without blocking); ``test()`` polls, returning ``True``
    once complete.  If the operation failed (peer crash, bad buffer), both
    re-raise the failure.

    After completion the handle reports its timing split:
    ``exposed_seconds`` is time the caller spent blocked (issue-time for
    eager handles, ``wait()`` time for async ones) and ``hidden_seconds`` is
    the remainder of the operation's duration — communication that ran
    concurrently with the caller's compute.  :func:`finish` feeds these into
    a :class:`Profiler`.
    """

    def __init__(self, op: str, tag: int, unpin: Optional[Callable[[], None]] = None):
        self.op = op
        self.tag = tag
        self._unpin = unpin
        self._finalized = False
        self.exposed_seconds = 0.0
        self.hidden_seconds = 0.0

    # -- subclass duties -----------------------------------------------------
    def wait(self) -> Any:
        raise NotImplementedError

    def test(self) -> bool:
        raise NotImplementedError

    @property
    def done(self) -> bool:
        """Whether the operation has completed (never blocks)."""
        raise NotImplementedError

    # -- shared finalization -------------------------------------------------
    def _finalize_once(self) -> None:
        if self._finalized:
            return
        self._finalized = True
        if self._unpin is not None:
            self._unpin()

    def __repr__(self) -> str:
        state = "done" if self.done else "in-flight"
        return f"{type(self).__name__}(op={self.op!r}, tag={self.tag}, {state})"


class _EagerHandle(CommHandle):
    """Handle completed at issue time via the native blocking collective."""

    def __init__(
        self,
        op: str,
        tag: int,
        result: Any,
        duration: float,
        unpin: Optional[Callable[[], None]] = None,
    ):
        super().__init__(op, tag, unpin=unpin)
        self._result = result
        # The blocking collective ran on the critical path at issue.
        self.exposed_seconds = duration
        self.hidden_seconds = 0.0

    @property
    def done(self) -> bool:
        return True

    def wait(self) -> Any:
        self._finalize_once()
        return self._result

    def test(self) -> bool:
        self._finalize_once()
        return True


class _AsyncHandle(CommHandle):
    """Handle completed by a :class:`_HelperRunner` thread."""

    def __init__(
        self,
        op: str,
        tag: int,
        unpin: Optional[Callable[[], None]] = None,
        record: Optional[Callable[[Any], None]] = None,
    ):
        super().__init__(op, tag, unpin=unpin)
        #: Books the ledger entry from the result, on the caller's thread.
        self._record = record
        self._event = threading.Event()
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._duration = 0.0

    # -- helper-thread side --------------------------------------------------
    def _complete(self, result: Any, duration: float) -> None:
        self._result = result
        self._duration = duration
        self._event.set()

    def _fail(self, error: BaseException, duration: float) -> None:
        self._error = error
        self._duration = duration
        self._event.set()

    # -- caller side ---------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._event.is_set()

    def _finalize_once(self) -> None:
        if self._finalized:
            return
        # Exposed time was accumulated by wait(); everything else the
        # operation spent running overlapped the caller's compute.
        self.hidden_seconds = max(0.0, self._duration - self.exposed_seconds)
        super()._finalize_once()
        if self._error is None and self._record is not None:
            self._record(self._result)

    def wait(self) -> Any:
        if not self._event.is_set():
            start = time.perf_counter()
            self._event.wait()
            self.exposed_seconds += time.perf_counter() - start
        self._finalize_once()
        if self._error is not None:
            raise self._error
        return self._result

    def test(self) -> bool:
        if not self._event.is_set():
            return False
        self._finalize_once()
        if self._error is not None:
            raise self._error
        return True


class _HelperRunner:
    """One daemon thread executing a communicator's nonblocking ops in order.

    Operations are executed strictly in submission order over the silent
    shadow communicator, identically on every rank (the loops are SPMD), so
    the per-(src, dst) FIFO mailboxes guarantee messages of consecutive
    operations can never cross.
    """

    def __init__(self, owner: Any, shadow: Any):
        self._shadow = shadow
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._run,
            name=f"nb-helper-r{shadow.rank}",
            daemon=True,
        )
        self._thread.start()
        # Belt and braces for ad-hoc users that never call
        # shutdown_nonblocking(): stop the helper when the owning Comm is
        # collected.  The callback must not capture owner or self (that would
        # keep them alive forever); the queue alone is enough.
        self._finalizer = weakref.finalize(owner, _request_shutdown, self._queue)

    def submit(self, handle: _AsyncHandle, fn: Callable[[Any], Any]) -> None:
        """Queue ``fn(shadow)``; its return value completes ``handle``."""
        self._queue.put((handle, fn))

    def shutdown(self, timeout: float = 5.0) -> None:
        """Finish pending operations, then stop and join the helper thread."""
        self._finalizer.detach()
        self._queue.put(_SHUTDOWN)
        self._thread.join(timeout=timeout)

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            handle, fn = item
            start = time.perf_counter()
            try:
                result = fn(self._shadow)
            except BaseException as exc:  # noqa: BLE001 - delivered via wait()
                handle._fail(exc, time.perf_counter() - start)
            else:
                handle._complete(result, time.perf_counter() - start)


def _request_shutdown(q: "queue.SimpleQueue") -> None:
    q.put(_SHUTDOWN)


def finish(
    handle: CommHandle,
    profiler: Optional[Profiler] = None,
    category: Optional[TaskCategory] = None,
) -> Any:
    """Wait on ``handle`` and book its timing split into ``profiler``.

    Exposed (blocked) seconds land in ``category`` — the same classic
    collective category the blocking call would be timed under, keeping
    existing breakdown totals backward-compatible — and overlapped seconds
    land in :attr:`TaskCategory.HIDDEN_COMM`.  Call once per handle.
    """
    result = handle.wait()
    if profiler is not None and category is not None:
        profiler.add(category, handle.exposed_seconds)
        if handle.hidden_seconds > 0.0:
            profiler.add(TaskCategory.HIDDEN_COMM, handle.hidden_seconds)
    return result


def drain(handles: Sequence[CommHandle]) -> None:
    """Wait every handle, discarding results and failures (error-path cleanup).

    For ``finally`` blocks that abandon in-flight operations because
    something else already failed: the waits unpin workspace buffers and
    empty the helper's queue; a wait that fails too must not replace the
    exception being propagated.
    """
    for handle in handles:
        try:
            handle.wait()
        except Exception:  # noqa: BLE001 - the caller's own exception surfaces
            pass
