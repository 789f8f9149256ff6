"""What the Algorithm 2 and Algorithm 3 rank programs share.

Both loops are written once, against :class:`~repro.comm.nonblocking.CommHandle`:
every collective whose result is not needed straight away is issued at the
earliest program point its input exists and claimed (:meth:`SpmdLoop.finish`)
where the result is first needed.  A handle is complete when the issuing call
returns — on every backend; see :mod:`repro.comm.nonblocking` for why there is
no background engine — so the program is bulk-synchronous, as the paper's
Algorithm 3 is: the claim only books the collective's seconds under its
Figure-3 category.  ``NMFConfig.overlap`` is accepted and changes nothing.

:class:`SpmdLoop` owns the pieces both files would otherwise spell out: the
profiler/ledger/:class:`LoopControl` set-up, the error path with its history
record, and the per-rank output :func:`assemble_result` combines.
"""

from __future__ import annotations

import logging
import time
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.comm.communicator import Comm
from repro.comm.cost import CostLedger
from repro.comm.nonblocking import CommHandle, finish
from repro.comm.profiler import Profiler, TaskCategory, max_over_ranks
from repro.core.config import NMFConfig
from repro.core.local_ops import gram, local_cross_term
from repro.core.objective import objective_from_grams
from repro.core.observers import IterationObserver, LoopControl
from repro.core.result import NMFResult
from repro.util.errors import PartitionError

logger = logging.getLogger("repro.core")


class SpmdLoop:
    """Per-rank loop state shared by ``naive_parallel_nmf`` and ``hpc_nmf``.

    Construct it after the set-up collectives (grid, ``||A||²``): it attaches
    the cost ledger to the world communicator ``comm``, so the ledger records
    exactly the per-iteration communication the paper's analysis covers
    (sub-communicators resolve the ledger through their parent).
    """

    def __init__(
        self,
        comm: Comm,
        config: NMFConfig,
        observers: Optional[Sequence[IterationObserver]],
        variant: str,
        grid_shape: Tuple[int, int],
        norm_a_sq: float,
    ):
        self.comm = comm
        self.config = config
        self.variant = variant
        self.grid_shape = grid_shape
        self.norm_a_sq = norm_a_sq
        self.profiler = Profiler()
        self.ledger = CostLedger()
        comm.attach_ledger(self.ledger)
        self.control = LoopControl(config, observers, comm=comm, variant=variant).start()
        # Whether iteration i+1's factor gather may run before iteration i's
        # stopping decision: only when record() can never request a stop (a
        # fixed iteration count and nobody watching) — a gather after a stop
        # would be a collective the §5 closed form does not have.  The gather
        # then falls inside iteration i's ``seconds``; otherwise it runs
        # after the decision, between two iterations' clocks.
        self.speculative = config.tol == 0 and not observers
        # All-reduced H Hᵀ of the last recorded iteration.  It is exactly what
        # the next iteration's W-update needs (same local Grams, same
        # rank-ordered reduction → same bits), so tracking the objective
        # saves that Gram and all-reduce.  Every rank takes the same branch in
        # the same iterations, so the collective schedule stays aligned.
        self.gram_h = None
        self._gram_h_buf = comm.workspace.get("gram_h_new", (config.k, config.k))
        if comm.rank == 0:
            logger.debug(
                "%s fit: grid=%dx%d backend=%s speculative=%s max_iters=%d",
                variant, *grid_shape, config.backend, self.speculative, config.max_iters,
            )

    def finish(self, handle: CommHandle, category: TaskCategory):
        """Claim ``handle``: its result, its seconds booked under ``category``."""
        return finish(handle, self.profiler, category)

    # -- error path ----------------------------------------------------------
    def end_iteration(self, iteration, iter_start, H_local, wta, gram_w) -> bool:
        """Error path and history record; True when the loop must stop.

        ``‖A − WH‖²`` by the Gram trick from distributed pieces: the local
        cross term ``⟨WᵀA, H⟩`` and the local H-Gram are summed with two small
        all-reduces; the reduced ``H Hᵀ`` is kept as the next iteration's
        :attr:`gram_h`.
        """
        if not self.config.compute_error:
            return self.control.record(iteration, seconds=time.perf_counter() - iter_start)
        comm, profiler = self.comm, self.profiler
        with profiler.task(TaskCategory.GRAM):
            local_gram_h = gram(H_local, transpose_first=False)
        with profiler.task(TaskCategory.ALL_REDUCE):
            cross = comm.allreduce_scalar(local_cross_term(wta, H_local))
        with profiler.task(TaskCategory.ALL_REDUCE):
            self.gram_h = comm.allreduce(local_gram_h, out=self._gram_h_buf)
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
    # The rank ranges tile [0, m) / [0, n) (the ownership invariant of
    # repro.dist.factors), so every element is written exactly once below.
    for key, extent in (("w_range", m), ("h_range", n)):
        ranges = sorted(tuple(entry[key]) for entry in per_rank)
        edges = [0] + [hi for _, hi in ranges]
        if [lo for lo, _ in ranges] != edges[:-1] or edges[-1] != extent:
            raise PartitionError(
                f"the ranks' {key} blocks {ranges} do not tile [0, {extent})"
            )
    W = np.empty((m, config.k))
    H = np.empty((config.k, n))
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
