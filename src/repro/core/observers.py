"""The per-iteration observer protocol shared by every NMF variant.

Every variant's outer loop — the SPMD loops of Algorithms 2 and 3
(Algorithm 1, ``symmetric`` and ``regularized`` at ``p = 1`` are Algorithm 3
over a one-rank communicator) and the streaming variant's per-frame loop —
reports each iteration to a list of :class:`IterationObserver` objects and
honours their stop requests.  That
makes cross-cutting concerns (watching the history live, checkpointing, an
early stop of your own) *composable*: pass any mix of the built-in
observers below, or any object with the same three methods, to
:func:`repro.fit`.  ``config.tol`` is the loop's own stopping rule.

Dispatch rules
--------------
* In-process loops call every observer directly, once per outer iteration.
* SPMD loops call observers on **rank 0 only** (events carry the replicated
  objective/relative-error values, which are identical on every rank by
  construction).  When at least one observer is present, the per-iteration
  stop decision is agreed between the ranks with one extra scalar all-reduce
  so that an observer's stop request — which only rank 0 sees — cannot leave
  the other ranks blocked in a collective.  With no observers the loop's
  communication is exactly the paper's (no extra collectives), which the
  communication-volume tests pin down.
* An observer requests a stop by returning a truthy value from
  ``on_iteration``; the loop finishes the current iteration and exits.

:class:`LoopControl` is the internal helper that implements these rules plus
the bookkeeping every variant shares (history recording and ``config.tol``
convergence); variants call ``record(...)`` once per iteration instead of
hand-rolling the same block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import NMFConfig
from repro.core.result import IterationStats, NMFResult


@dataclass
class IterationEvent:
    """What a variant's outer loop reports after each iteration.

    ``objective`` / ``relative_error`` are NaN when the run has error
    computation disabled (``compute_error=False``) or the variant does not
    define that metric.  ``W`` / ``H`` are the current *global* factors when
    the variant has them in one place (in-process variants, and SPMD loops on
    one rank); SPMD loops on more ranks pass ``None`` — each rank only owns a
    block.

    ``W`` and ``H`` are the loop's live iterates, not copies: each solve
    writes its solution over the previous one in place, so they are valid
    only during ``on_iteration``.  An observer that keeps factors must copy
    them there (as :class:`CheckpointEvery` does by saving at once).
    """

    iteration: int
    variant: str
    objective: float = float("nan")
    relative_error: float = float("nan")
    seconds: float = 0.0
    k: int = 0
    n_ranks: int = 1
    W: Optional[np.ndarray] = None
    H: Optional[np.ndarray] = None

    @property
    def has_error(self) -> bool:
        """True when this event carries a real relative-error measurement."""
        return not math.isnan(self.relative_error)

    @property
    def has_factors(self) -> bool:
        """True when the event carries the current global factors."""
        return self.W is not None and self.H is not None


class IterationObserver:
    """Base class *and* protocol of the observer interface.

    Subclassing is optional — any object providing these three methods (all
    optional behaviourally; the base versions are no-ops) can be passed to
    :func:`repro.fit`:

    * ``on_start(config, variant)`` — once, before the first iteration;
    * ``on_iteration(event) -> bool | None`` — once per outer iteration;
      returning a truthy value asks the loop to stop after this iteration;
    * ``on_finish(result)`` — once, with the assembled
      :class:`~repro.core.result.NMFResult` (called on the driver, after
      SPMD assembly).
    """

    def on_start(self, config: NMFConfig, variant: str) -> None:  # pragma: no cover - trivial
        pass

    def on_iteration(self, event: IterationEvent) -> Optional[bool]:
        return None

    def on_finish(self, result: NMFResult) -> None:  # pragma: no cover - trivial
        pass


# ---------------------------------------------------------------------------
# built-in observers
# ---------------------------------------------------------------------------

class HistoryRecorder(IterationObserver):
    """Collects one :class:`IterationStats` per observed iteration.

    The loops record their own result history internally; this observer is
    for *watching* a run live (or capturing history from variants/configs
    that do not keep it, e.g. ``compute_error=False`` runs, where the stats
    carry NaN errors but real timings).  Reusable: each new run resets the
    recording, so after ``NMF(...).fit(A).fit(B)`` it holds B's history.
    """

    def __init__(self) -> None:
        self.history: List[IterationStats] = []

    def on_start(self, config: NMFConfig, variant: str) -> None:
        self.history = []

    def on_iteration(self, event: IterationEvent) -> None:
        self.history.append(
            IterationStats(
                iteration=event.iteration,
                objective=event.objective,
                relative_error=event.relative_error,
                seconds=event.seconds,
            )
        )

    @property
    def relative_errors(self) -> List[float]:
        return [s.relative_error for s in self.history]


class CheckpointEvery(IterationObserver):
    """Write an ``.npz`` checkpoint every ``every`` iterations.

    ``path_template`` is formatted with ``{iteration}``.  When the event
    carries global factors (any run on one rank) they are stored; SPMD events
    on more ranks carry none, so the checkpoint holds the scalar progress
    metrics only.
    ``paths`` lists everything written, newest last.
    """

    def __init__(self, every: int, path_template: Union[str, Path]) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.every = int(every)
        self.path_template = str(path_template)
        self.paths: List[Path] = []

    def on_iteration(self, event: IterationEvent) -> None:
        if (event.iteration + 1) % self.every != 0:
            return
        path = Path(self.path_template.format(iteration=event.iteration))
        arrays = {
            "iteration": np.asarray(event.iteration),
            "objective": np.asarray(event.objective),
            "relative_error": np.asarray(event.relative_error),
        }
        if event.has_factors:
            arrays["W"] = event.W
            arrays["H"] = event.H
        np.savez(path, **arrays)
        self.paths.append(path if path.suffix == ".npz" else path.with_name(path.name + ".npz"))


# ---------------------------------------------------------------------------
# the shared loop-control helper
# ---------------------------------------------------------------------------

class LoopControl:
    """Shared outer-loop bookkeeping: history, tol stopping, observer dispatch.

    One instance drives one variant run (on SPMD runs: one instance per rank,
    created inside the per-rank program).  ``record`` is called once per
    outer iteration and returns True when the loop should stop — either
    because the ``config.tol`` convergence criterion fired (a replicated,
    deterministic decision, identical on every rank) or because an observer
    requested it (a rank-0 decision, shared with the other ranks through one
    scalar all-reduce — only performed when observers are present, so
    observer-free runs keep exactly the paper's communication volume).
    """

    def __init__(
        self,
        config: NMFConfig,
        observers: Optional[Sequence[IterationObserver]] = None,
        *,
        comm=None,
        variant: str = "sequential",
    ):
        self.config = config
        self.history: List[IterationStats] = []
        self.converged = False
        self.iterations = 0
        self.variant = variant
        self._observers = tuple(observers or ())
        self._comm = comm
        self._root = comm is None or comm.rank == 0
        self._n_ranks = comm.size if comm is not None else 1
        self._previous = math.inf

    def start(self) -> "LoopControl":
        if self._root:
            for observer in self._observers:
                observer.on_start(self.config, self.variant)
        return self

    def record(
        self,
        iteration: int,
        *,
        objective: float = float("nan"),
        relative_error: float = float("nan"),
        seconds: float = 0.0,
        factors: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> bool:
        """Log one finished iteration; returns True when the loop should stop."""
        self.iterations = iteration + 1
        stop = False
        measured = not (math.isnan(objective) and math.isnan(relative_error))
        if measured:
            self.history.append(
                IterationStats(
                    iteration=iteration,
                    objective=objective,
                    relative_error=relative_error,
                    seconds=seconds,
                )
            )
            if not math.isnan(relative_error):
                if self.config.tol > 0 and self._previous - relative_error < self.config.tol:
                    self.converged = True
                    stop = True
                self._previous = relative_error
        if self._observers:
            requested = False
            if self._root:
                event = IterationEvent(
                    iteration=iteration,
                    variant=self.variant,
                    objective=objective,
                    relative_error=relative_error,
                    seconds=seconds,
                    k=self.config.k,
                    n_ranks=self._n_ranks,
                    W=factors[0] if factors is not None else None,
                    H=factors[1] if factors is not None else None,
                )
                for observer in self._observers:
                    if observer.on_iteration(event):
                        requested = True
            if self._comm is not None:
                # Rank 0 contributes the observer votes; the tol decision is
                # already replicated.  SUM > 0 means someone asked to stop.
                stop = self._comm.allreduce_scalar(1.0 if (stop or requested) else 0.0) > 0.0
            else:
                stop = stop or requested
        return stop


def notify_finish(
    observers: Optional[Sequence[IterationObserver]], result: NMFResult
) -> NMFResult:
    """``on_finish`` dispatch in the calling process, once the variant holds its result.

    The per-rank :class:`LoopControl` objects die with their ranks before the
    global result exists (and symmetric NMF builds its own from the
    assembled one), so the variant layer calls this last.
    """
    for observer in observers or ():
        observer.on_finish(result)
    return result
