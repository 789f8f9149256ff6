"""The deterministic lockstep SPMD backend.

:class:`LockstepBackend` runs the ranks of an SPMD program *cooperatively*:
at any instant at most one rank executes user code, and control is handed off
only at communication points (barriers and empty-mailbox receives), always to
the lowest-numbered runnable rank.  Compared to the thread backend this gives

* **bit-for-bit reproducible runs** — the rank interleaving is a pure
  function of the program, never of OS scheduling, so two runs with the same
  seed produce byte-identical results *and* byte-identical schedules;
* **scalability in the rank count** — simulating a 16×16 grid (p = 256, the
  scale of the paper's Figure 3 studies) never has more than one runnable
  rank, so there is no GIL convoy, no barrier storm, and no thread-pool
  collapse;
* **deterministic deadlock detection** — when every live rank is blocked the
  backend raises a :class:`~repro.util.errors.CommunicatorError` naming each
  rank's blocking operation instead of hanging until a timeout.

Mechanically, each rank still owns a (parked) carrier thread, because its
paused call stack must live somewhere — but the scheduler guarantees the
threads never run concurrently (asserted by :attr:`LockstepBackend.max_concurrency`).
Ranks suspended between handoffs cost only their stack; no locks are
contended and no barrier wakeups fan out.
"""

from __future__ import annotations

import collections
import threading
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.comm.backends.base import (
    Backend,
    PeerAbortError,
    SharedGroupState,
    _RankFailure,
    raise_first_failure,
)
from repro.util.errors import CommunicatorError


class _LockstepScheduler:
    """Baton scheduler: exactly one rank thread is ever unparked.

    Every rank has a private :class:`threading.Event` baton.  A rank runs
    until it suspends (barrier, empty recv) or finishes; the scheduler then
    picks the lowest-numbered runnable rank and hands it the baton.  All
    bookkeeping is guarded by one mutex, and each handoff wakes exactly one
    thread — no ``notify_all`` fan-out, so the cost of a p-rank barrier is
    O(p) handoffs rather than O(p²) wakeups.
    """

    def __init__(self, n_ranks: int):
        self.n_ranks = n_ranks
        self._mutex = threading.Lock()
        self._batons = [threading.Event() for _ in range(n_ranks)]
        self._runnable = [True] * n_ranks
        self._done = [False] * n_ranks
        self._blocked_reason: List[Optional[str]] = [None] * n_ranks
        self._current: Optional[int] = 0
        self._aborted = False
        self._deadlock_message: Optional[str] = None
        self._live = 0
        self.max_live = 0
        self.schedule_trace: List[int] = [0]
        self._tls = threading.local()
        self._batons[0].set()  # rank 0 runs first

    # -- thread identity ----------------------------------------------------
    def attach(self, rank: int) -> None:
        """Bind the calling thread to ``rank`` (thread-local)."""
        self._tls.rank = rank

    @property
    def this_rank(self) -> int:
        return self._tls.rank

    # -- scheduling core (mutex held) ---------------------------------------
    def _pick_next_locked(self) -> None:
        for r in range(self.n_ranks):
            if self._runnable[r] and not self._done[r]:
                self._current = r
                self.schedule_trace.append(r)
                self._batons[r].set()
                return
        if all(self._done):
            self._current = None
            return
        # Every live rank is blocked: a deadlock.  Describe each rank so the
        # hang is diagnosable, then wake everyone to unwind.
        lines = []
        for r in range(self.n_ranks):
            if self._done[r]:
                status = "finished"
            else:
                status = self._blocked_reason[r] or "blocked"
            lines.append(f"  rank {r}: {status}")
        self._deadlock_message = (
            "SPMD deadlock: every live rank is blocked and no message or "
            "barrier arrival can release them\n" + "\n".join(lines)
        )
        self._abort_locked()
        raise CommunicatorError(self._deadlock_message)

    def _abort_locked(self) -> None:
        self._aborted = True
        for baton in self._batons:
            baton.set()

    def _release_baton_locked(self, rank: int) -> None:
        self._live -= 1
        self._batons[rank].clear()

    # -- public operations --------------------------------------------------
    def wait_for_turn(self, rank: int) -> None:
        """Park until this rank is handed the baton (or the run aborts)."""
        self._batons[rank].wait()
        with self._mutex:
            if self._aborted:
                self._raise_abort_locked()
            self._live += 1
            self.max_live = max(self.max_live, self._live)

    def _raise_abort_locked(self) -> None:
        if self._deadlock_message is not None:
            reason = self._blocked_reason[self.this_rank]
            suffix = f" (this rank was blocked in {reason})" if reason else ""
            raise CommunicatorError(self._deadlock_message + suffix)
        raise PeerAbortError("aborting: a peer rank failed")

    def suspend(self, reason: str) -> None:
        """Block the calling rank on ``reason`` and hand off; returns once resumed.

        The caller must have been marked non-runnable *before* this call only
        via :meth:`suspend` itself — callers just describe why they block.
        Some other rank must later mark this rank runnable again
        (:meth:`make_runnable`) for the handoff to come back.
        """
        rank = self.this_rank
        with self._mutex:
            if self._aborted:
                self._raise_abort_locked()
            self._runnable[rank] = False
            self._blocked_reason[rank] = reason
            self._release_baton_locked(rank)
            self._pick_next_locked()
        self.wait_for_turn(rank)

    def yield_turn(self) -> None:
        """Hand the baton to the lowest runnable rank (possibly the caller).

        Used by the last rank arriving at a barrier so the released group
        resumes in rank order rather than last-arriver-first.
        """
        rank = self.this_rank
        with self._mutex:
            if self._aborted:
                self._raise_abort_locked()
            self._release_baton_locked(rank)
            self._pick_next_locked()
        self.wait_for_turn(rank)

    def make_runnable(self, rank: int) -> None:
        """Mark a parked rank runnable again (does not preempt the caller)."""
        with self._mutex:
            self._runnable[rank] = True
            self._blocked_reason[rank] = None

    def check_abort(self) -> None:
        with self._mutex:
            if self._aborted:
                self._raise_abort_locked()

    def finish(self, rank: int, failed: bool) -> None:
        """Retire the calling rank and hand the baton onward."""
        with self._mutex:
            self._done[rank] = True
            self._runnable[rank] = False
            self._live -= 1
            if failed:
                self._abort_locked()
                return
            if self._aborted:
                return
            try:
                self._pick_next_locked()
            except CommunicatorError:
                # The deadlock belongs to the still-blocked peers; they are
                # woken by the abort and raise the descriptive error
                # themselves.  This rank completed successfully.
                pass


class _LockstepMailbox:
    """FIFO (src → dst) channel that suspends the receiver instead of polling."""

    def __init__(self, state: "LockstepGroupState", src: int, dst: int):
        self._state = state
        self._src = src
        self._dst = dst
        self._items: Deque[Any] = collections.deque()

    def put(self, item: Any) -> None:
        sched = self._state.scheduler
        self._items.append(item)
        waiter = self._state.recv_waiters.pop((self._src, self._dst), None)
        if waiter is not None:
            sched.make_runnable(waiter)

    def get(self, timeout: Optional[float] = None) -> Any:
        # ``timeout`` is accepted for interface parity with queue.SimpleQueue
        # but ignored: with cooperative scheduling a wait can never be a race,
        # only progress or a deadlock — and deadlocks are detected exactly.
        sched = self._state.scheduler
        while not self._items:
            self._state.recv_waiters[(self._src, self._dst)] = sched.this_rank
            sched.suspend(
                f"recv(source={self._src}, dest={self._dst}, "
                f"group_size={self._state.size})"
            )
        return self._items.popleft()


class LockstepGroupState(SharedGroupState):
    """Group state whose synchronization goes through the lockstep scheduler.

    The deposit-slot movement of ``Comm``'s collectives is inherited
    unchanged; only ``wait`` (barriers), the mailboxes (receive
    suspends instead of polling) and ``make_subgroup`` (sub-communicators
    share the scheduler) differ from the thread backend's state.
    """

    def __init__(self, size: int, scheduler: _LockstepScheduler):
        super().__init__(size)
        self.scheduler = scheduler
        # Parked *world* ranks per in-progress barrier, and world ranks blocked
        # in a receive, keyed by (src, dst) group-local ranks.
        self._barrier_parked: List[int] = []
        self.recv_waiters: Dict[Tuple[int, int], int] = {}

    def _new_mailbox(self, src: int, dst: int) -> _LockstepMailbox:
        return _LockstepMailbox(self, src, dst)

    def make_subgroup(self, size: int, members=None, reg_key=None) -> "LockstepGroupState":
        return LockstepGroupState(size, self.scheduler)

    def wait(self) -> None:
        sched = self.scheduler
        sched.check_abort()
        if len(self._barrier_parked) + 1 == self.size:
            # Last arrival: release the parked members, then yield so the
            # group resumes in rank order.
            for world_rank in self._barrier_parked:
                sched.make_runnable(world_rank)
            self._barrier_parked.clear()
            sched.yield_turn()
        else:
            self._barrier_parked.append(sched.this_rank)
            sched.suspend(f"barrier(group_size={self.size})")


class LockstepBackend(Backend):
    """Runs an SPMD program one rank at a time, in rank order, deterministically.

    Attributes (populated by :meth:`run`)
    -------------------------------------
    max_concurrency:
        Largest number of ranks that were ever unparked simultaneously;
        always 1 for a completed lockstep run (asserted in the test suite).
    schedule_trace:
        The sequence of rank handoffs of the last run — identical across
        runs of the same program, which is the reproducibility contract.
    """

    def __init__(self, n_ranks: int, name: str = "spmd"):
        super().__init__(n_ranks, name=name)
        self.max_concurrency = 0
        self.schedule_trace: List[int] = []

    def run(self, program: Callable[..., Any], *args: Any, **kwargs: Any) -> List[Any]:
        # Imported here to avoid a circular import at module load time.
        from repro.comm.communicator import Comm

        scheduler = _LockstepScheduler(self.n_ranks)
        state = LockstepGroupState(self.n_ranks, scheduler)
        results: List[Any] = [None] * self.n_ranks

        def worker(rank: int) -> None:
            scheduler.attach(rank)
            comm = Comm(state=state, rank=rank, group_ranks=tuple(range(self.n_ranks)))
            failed = False
            try:
                scheduler.wait_for_turn(rank)
                results[rank] = program(comm, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - must not strand peers
                results[rank] = _RankFailure(rank, exc)
                failed = True
            finally:
                scheduler.finish(rank, failed=failed)

        self._launch(worker)
        self.max_concurrency = scheduler.max_live if self.n_ranks > 1 else 1
        self.schedule_trace = scheduler.schedule_trace
        raise_first_failure(results)
        return results
