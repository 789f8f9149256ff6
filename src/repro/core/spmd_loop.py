"""What the Algorithm 2 and Algorithm 3 rank programs share, and how they run.

Both loops run in the paper's line order, bulk-synchronously as Algorithm 3
is (its §4.3/§5 cost is computation *plus* communication): every collective
is a blocking call at the line that reads its result, timed by
``profiler.collective`` under its Figure-3 category.  An iteration's clock
starts at its top, before its factor gather, and stops at its history
record, so ``history[i].seconds`` tile the loop under every stopping rule.
``NMFConfig.overlap`` is accepted and changes nothing.

:class:`SpmdLoop` owns the pieces both files would otherwise spell out: the
profiler/ledger/:class:`LoopControl` set-up, the error path with its history
record, and the per-rank output :func:`assemble_result` combines.

A rank program runs one of two ways.  :func:`run_on_backend` launches it on
``config.n_ranks`` ranks of ``config.backend``.  :func:`run_in_process`
calls it once on :class:`~repro.comm.communicator.SelfComm` in this process:
that is Algorithm 1 (``sequential``), Algorithm 3 on a 1 × 1 grid, where
every collective hands back its input, moves nothing and is not timed.
Symmetric NMF and streaming NMF's refresh run it so too, through
:func:`run_on_self` (no input check, no ``on_finish``).
"""

from __future__ import annotations

import dataclasses
import logging
import time
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.comm.communicator import Comm, SelfComm
from repro.comm.cost import CostLedger
from repro.comm.profiler import Profiler, TaskCategory, max_over_ranks
from repro.core.config import NMFConfig
from repro.core.local_ops import gram, local_cross_term
from repro.core.objective import objective_from_grams
from repro.core.observers import IterationObserver, LoopControl, notify_finish
from repro.core.regularized import Penalty, Regularization
from repro.core.result import NMFResult
from repro.util.errors import PartitionError
from repro.util.validation import check_nonnegative_matrix, check_rank

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
        penalty: Penalty = Regularization(),
    ):
        self.comm = comm
        self.config = config
        self.variant = variant
        self.grid_shape = grid_shape
        self.norm_a_sq = norm_a_sq
        self.penalty = penalty
        self.profiler = Profiler()
        self.ledger = CostLedger()
        comm.attach_ledger(self.ledger)
        self.control = LoopControl(config, observers, comm=comm, variant=variant).start()
        # All-reduced H Hᵀ of the last recorded iteration.  It is exactly what
        # the next iteration's W-update needs (same local Grams, same
        # rank-ordered reduction → same bits), so tracking the objective
        # saves that Gram and all-reduce.  Every rank takes the same branch in
        # the same iterations, so the collective schedule stays aligned.
        self.gram_h = None
        self._gram_h_buf = (
            comm.workspace.get("gram_h_new", (config.k, config.k)) if comm.size > 1 else None
        )
        if comm.rank == 0:
            logger.debug(
                "%s fit: grid=%dx%d backend=%s max_iters=%d",
                variant, *grid_shape, config.backend, config.max_iters,
            )

    # -- error path ----------------------------------------------------------
    def end_iteration(self, iteration, iter_start, W_local, H_local, wta, gram_w) -> bool:
        """Error path and history record; True when the loop must stop.

        ``‖A − WH‖²`` by the Gram trick from distributed pieces: the local
        cross term ``⟨WᵀA, H⟩`` and the local H-Gram are summed with two small
        all-reduces; the reduced ``H Hᵀ`` is kept as the next iteration's
        :attr:`gram_h`.  ``wta`` is the unpenalized line-13 result, so
        ``relative_error`` is the unpenalized ratio; the penalty's value is
        added to ``objective`` only (:meth:`Penalty.objective_term`).  Its
        local scalars ride along the cross term in that all-reduce, which is
        one scalar when it has none.

        On a one-rank communicator the local blocks are the global factors,
        and the observers get them live.
        """
        factors = (W_local, H_local) if self.comm.size == 1 else None
        if not self.config.compute_error:
            return self.control.record(
                iteration, seconds=time.perf_counter() - iter_start, factors=factors
            )
        comm, profiler = self.comm, self.profiler
        with profiler.task(TaskCategory.GRAM):
            local_gram_h = gram(H_local, transpose_first=False)
        with profiler.collective(TaskCategory.ALL_REDUCE, comm):
            cross_local = local_cross_term(wta, H_local)
            scalars = self.penalty.local_scalars(W_local, H_local)
            if scalars:
                cross, *scalars = (
                    float(v) for v in comm.allreduce(np.array([cross_local, *scalars]))
                )
            else:
                cross = comm.allreduce_scalar(cross_local)
        with profiler.collective(TaskCategory.ALL_REDUCE, comm):
            self.gram_h = comm.allreduce(local_gram_h, out=self._gram_h_buf)
        seconds = time.perf_counter() - iter_start
        residual = objective_from_grams(self.norm_a_sq, cross, gram_w, self.gram_h)
        rel_error = float(np.sqrt(residual / self.norm_a_sq)) if self.norm_a_sq > 0 else 0.0
        objective = residual + self.penalty.objective_term(gram_w, self.gram_h, scalars)
        return self.control.record(
            iteration, objective=objective, relative_error=rel_error, seconds=seconds,
            factors=factors,
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


def _checked(A, config: NMFConfig):
    A = check_nonnegative_matrix(A, "A")
    check_rank(config.k, *A.shape)
    return A


def run_on_backend(
    program: Callable[..., dict],
    A,
    config: NMFConfig,
    observers: Optional[Sequence[IterationObserver]],
    variant: str,
    **options,
) -> NMFResult:
    """``program`` on ``config.n_ranks`` ranks of ``config.backend``, assembled.

    ``options`` are passed to every rank's ``program`` call.
    """
    from repro.comm.backends import run_spmd

    per_rank = run_spmd(
        config.n_ranks,
        program,
        _checked(A, config),
        config,
        name=f"{variant}-nmf",
        backend=config.backend,
        observers=tuple(observers or ()),
        variant=variant,
        **options,
    )
    return notify_finish(observers, assemble_result(per_rank, config))


def run_on_self(
    program: Callable[..., dict],
    A,
    config: NMFConfig,
    observers: Optional[Sequence[IterationObserver]],
    variant: str,
    **options,
) -> NMFResult:
    """``program`` on a 1 × 1 grid over :class:`SelfComm`, in this process.

    No backend is launched, so the result records none (``backend`` and
    ``grid_shape`` are ``None``, as for any in-process variant); ``n_ranks``
    and ``grid`` of ``config`` are not read.  ``A`` is not checked and
    ``on_finish`` is not called (see :func:`run_in_process`).
    """
    rank = program(
        SelfComm(),
        A,
        config.with_options(grid=None),
        observers=tuple(observers or ()),
        variant=variant,
        **options,
    )
    result = assemble_result([rank], config)
    return dataclasses.replace(result, grid_shape=None, backend=None)


def run_in_process(
    program: Callable[..., dict],
    A,
    config: NMFConfig,
    observers: Optional[Sequence[IterationObserver]],
    variant: str,
    **options,
) -> NMFResult:
    """:func:`run_on_self` on a checked ``A``, then ``on_finish``."""
    result = run_on_self(program, _checked(A, config), config, observers, variant, **options)
    return notify_finish(observers, result)
