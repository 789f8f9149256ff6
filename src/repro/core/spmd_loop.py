"""What the Algorithm 2 and Algorithm 3 rank programs share.

Both loops are written once, against :class:`~repro.comm.nonblocking.CommHandle`:
every collective that can overlap compute is issued at the earliest program
point its input exists and claimed where its result is first needed.  The
schedule is therefore not a property of the loop but of *when handles
complete*:

* ``overlap=True`` (default) — helper-mode communicators (``thread``,
  ``socket``): a handle completes in the background and the claim books only
  the seconds the rank actually waited (the rest lands in ``HiddenComm``).
* ``overlap=False`` — the world, row and column communicators are put in
  eager mode (``ensure_nonblocking(eager=True)``): the native blocking
  collective runs at issue and the handle is already done.  This is the mode
  the process, lockstep and mpi backends always run the same program in,
  whatever ``overlap`` says; it starts no helper thread and no shadow
  communicator.

Same collectives, same count, same program order on every rank either way,
so factors and cost ledgers are byte-identical across the two modes.

:class:`SpmdLoop` owns the pieces that used to be spelled out in both files:
the profiler/ledger/:class:`LoopControl` set-up, the registry of in-flight
handles (``issue`` / ``finish`` / one ``drain`` in the loop's ``finally``),
and the error path with its deferred history record.
"""

from __future__ import annotations

import logging
import time
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.comm.communicator import Comm
from repro.comm.cost import CostLedger
from repro.comm.nonblocking import CommHandle, drain, finish
from repro.comm.profiler import Profiler, TaskCategory, max_over_ranks
from repro.core.config import NMFConfig
from repro.core.local_ops import gram, local_cross_term
from repro.core.objective import objective_from_grams
from repro.core.observers import IterationObserver, LoopControl
from repro.core.result import NMFResult

logger = logging.getLogger("repro.core")


class SpmdLoop:
    """Per-rank loop state shared by ``naive_parallel_nmf`` and ``hpc_nmf``.

    Construct it after the set-up collectives (grid, ``||A||²``): it attaches
    the cost ledger, so the ledger records exactly the per-iteration
    communication the paper's analysis covers (sub-communicators resolve the
    ledger through their parent).  ``comms`` lists every communicator the
    loop issues handles on, world communicator first.
    """

    def __init__(
        self,
        comms: Sequence[Comm],
        config: NMFConfig,
        observers: Optional[Sequence[IterationObserver]],
        variant: str,
        grid_shape: Tuple[int, int],
        norm_a_sq: float,
    ):
        self.comm = comm = comms[0]
        self._comms = tuple(comms)
        self.config = config
        self.variant = variant
        self.grid_shape = grid_shape
        self.norm_a_sq = norm_a_sq
        self.profiler = Profiler()
        self.ledger = CostLedger()
        comm.attach_ledger(self.ledger)
        self.control = LoopControl(config, observers, comm=comm, variant=variant).start()
        # Deferring iteration i's history record into iteration i+1 (and
        # issuing i+1's gather before i's stopping decision) is unobservable
        # exactly when record() can never request a stop: a fixed iteration
        # count and nobody watching.
        self.speculative = config.tol == 0 and not observers
        # The one place the schedule is chosen.  Helper threads and shadow
        # communicators start here (collectively), not inside the timed loop.
        helper = [c.ensure_nonblocking(eager=not config.overlap) for c in self._comms]
        self._open: list = []          # handles issued and not yet claimed
        self._pending = None           # the deferred error path, if in flight
        # All-reduced H Hᵀ of the last recorded iteration.  It is exactly what
        # the next iteration's W-update needs (same local Grams, same
        # rank-ordered reduction → same bits), so tracking the objective
        # saves that Gram and all-reduce.  Every rank takes the same branch in
        # the same iterations, so the collective schedule stays aligned.
        self.gram_h = None
        self._gram_h_buf = comm.workspace.get("gram_h_new", (config.k, config.k))
        if comm.rank == 0:
            logger.debug(
                "%s fit: grid=%dx%d backend=%s handles=%s speculative=%s max_iters=%d",
                variant, *grid_shape, config.backend,
                "helper" if any(helper) else "eager", self.speculative, config.max_iters,
            )

    # -- handles -------------------------------------------------------------
    def issue(self, handle: CommHandle) -> CommHandle:
        """Register an issued handle so :meth:`drain` can reach it."""
        self._open.append(handle)
        return handle

    def finish(self, handle: CommHandle, category: TaskCategory):
        """Claim ``handle``: exposed seconds to ``category``, the rest hidden."""
        self._open.remove(handle)
        return finish(handle, self.profiler, category)

    def drain(self) -> None:
        """The loop's ``finally``: wait what is still in flight, stop helpers.

        Nothing is in flight after a normal exit; after an exception the
        waits unpin the workspace buffers and empty the helper queues so the
        threads can be joined.
        """
        try:
            drain(self._open)
        finally:
            for c in reversed(self._comms):
                c.shutdown_nonblocking()

    # -- error path ----------------------------------------------------------
    @property
    def has_gram_h(self) -> bool:
        """Whether :meth:`claim` will deliver this iteration's ``H Hᵀ``."""
        return self._pending is not None or self.gram_h is not None

    def end_iteration(self, iteration, iter_start, H_local, wta, gram_w) -> bool:
        """Error path and history record; True when the loop must stop.

        ``‖A − WH‖²`` by the Gram trick from distributed pieces: the local
        cross term ``⟨WᵀA, H⟩`` and the local H-Gram are summed with two small
        all-reduces.  The H-Gram one is issued first so it overlaps the cross
        term — and, when the record is deferred, the next iteration up to its
        first NLS; ``record=False`` + ``record_collective`` books it at the
        program point after the cross term regardless, which keeps the
        ledger's accumulation order independent of completion time.
        """
        if not self.config.compute_error:
            return self.control.record(iteration, seconds=time.perf_counter() - iter_start)
        comm, profiler = self.comm, self.profiler
        with profiler.task(TaskCategory.GRAM):
            local_gram_h = gram(H_local, transpose_first=False)
        handle = self.issue(comm.iallreduce(local_gram_h, out=self._gram_h_buf, record=False))
        with profiler.task(TaskCategory.ALL_REDUCE):
            cross = comm.allreduce_scalar(local_cross_term(wta, H_local))
        comm.record_collective("all_reduce", local_gram_h.size * local_gram_h.itemsize / 8.0)
        self._pending = (handle, iteration, cross, gram_w, time.perf_counter() - iter_start)
        if self.speculative:
            return False               # record() runs at the claim point
        return self._claim(iter_start)

    def claim(self):
        """Settle a deferred error path; returns the cached ``H Hᵀ`` (or None)."""
        if self._pending is not None:
            self._claim()
        return self.gram_h

    def _claim(self, iter_start: Optional[float] = None) -> bool:
        handle, iteration, cross, gram_w, seconds = self._pending
        self._pending = None
        self.gram_h = self.finish(handle, TaskCategory.ALL_REDUCE)
        if iter_start is not None:     # claimed inside its own iteration: the wait counts
            seconds = time.perf_counter() - iter_start
        objective = objective_from_grams(self.norm_a_sq, cross, gram_w, self.gram_h)
        rel_error = float(np.sqrt(objective / self.norm_a_sq)) if self.norm_a_sq > 0 else 0.0
        return self.control.record(
            iteration, objective=objective, relative_error=rel_error, seconds=seconds
        )

    # -- output --------------------------------------------------------------
    def rank_output(self, W_local, H_local, w_range, h_range, shape) -> dict:
        """This rank's factor blocks and diagnostics for :func:`assemble_result`."""
        return {
            "rank": self.comm.rank,
            "variant": self.variant,
            "grid": self.grid_shape,
            "W_local": W_local,
            "H_local": H_local,
            "w_range": w_range,
            "h_range": h_range,
            "history": self.control.history,
            "breakdown": self.profiler.snapshot(),
            "ledger": self.ledger,
            "iterations": self.control.iterations,
            "converged": self.control.converged,
            "shape": shape,
        }


def assemble_result(per_rank: list[dict], config: NMFConfig) -> NMFResult:
    """Combine the per-rank :meth:`SpmdLoop.rank_output` dicts into one result."""
    per_rank = sorted(per_rank, key=lambda d: d["rank"])
    first = per_rank[0]
    m, n = first["shape"]
    W = np.zeros((m, config.k))
    H = np.zeros((config.k, n))
    for entry in per_rank:
        lo, hi = entry["w_range"]
        W[lo:hi] = entry["W_local"]
        lo, hi = entry["h_range"]
        H[:, lo:hi] = entry["H_local"]
    return NMFResult(
        W=W,
        H=H,
        config=config,
        iterations=first["iterations"],
        history=first["history"],
        breakdown=max_over_ranks([e["breakdown"] for e in per_rank]),
        ledger_summary=first["ledger"].summary(),
        n_ranks=len(per_rank),
        grid_shape=first["grid"],
        converged=first["converged"],
        variant=first["variant"],
        backend=config.backend,
    )
