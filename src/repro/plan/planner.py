"""The planner: choose variant and processor grid from the cost model (§5).

The paper's central planning result is that the algorithm flavor and the
``pr × pc`` grid should be *derived* from the per-iteration cost model: pick
``pr : pc ∝ m : n`` to hit the bandwidth lower bound, and fall back to the
1D or naive layouts when the shape makes them cheaper.  This module closes
that loop for arbitrary problems:

* :func:`plan_candidates` prices the four modeled variants of
  :data:`PLANNER_VARIANT_ORDER` with :mod:`repro.perf.model`'s closed forms
  — ``sequential`` as Algorithm 2 at ``p = 1`` with no words, ``naive`` by
  its own, ``hpc1d`` on ``(p, 1)`` and ``hpc2d`` on **every** factorization
  of ``p`` — under one :class:`~repro.perf.machine.MachineSpec`, and returns
  the table sorted by predicted per-iteration seconds;
* :func:`make_plan` returns the argmin as an :class:`ExecutionPlan`, which
  ``fit(A, k, variant="auto", grid="auto")`` executes and records in the
  result provenance (``result.plan``) so predicted-vs-measured comparison
  is one attribute access away.

Ties (e.g. every candidate at ``p = 1``) resolve to the earliest variant in
:data:`PLANNER_VARIANT_ORDER` — simplest execution wins when the model
cannot tell candidates apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.comm.profiler import TimeBreakdown
from repro.plan.problem import ProblemSpec

#: The variants the cost model prices, in tie-breaking and table order.
PLANNER_VARIANT_ORDER: Tuple[str, ...] = ("sequential", "hpc2d", "hpc1d", "naive")


@dataclass(frozen=True)
class ExecutionPlan:
    """One scored execution candidate: what to run and what the model expects.

    Attributes
    ----------
    variant:
        Variant name (``"hpc2d"``, ``"naive"``, ...).
    n_ranks:
        SPMD rank count ``p`` the plan was scored for.
    grid:
        ``(pr, pc)`` processor grid, or ``None`` for grid-free variants
        (sequential, naive).
    backend, solver:
        Execution backend and local NLS solver recorded for provenance.
    machine:
        Name of the :class:`~repro.perf.machine.MachineSpec` the prediction
        used (``"edison"`` unless calibrated).
    problem:
        The :class:`ProblemSpec` that was costed.
    breakdown:
        Predicted per-iteration :class:`~repro.comm.profiler.TimeBreakdown`
        (the six Figure-3 task categories).
    words_per_iteration:
        Predicted per-iteration communication volume in 8-byte words (the
        quantity Table 2 bounds), or ``None`` when the variant does not
        model it.
    schedule:
        Always ``"blocking"`` (read-only): every collective is a blocking
        call at the line that reads it (:mod:`repro.core.spmd_loop`), so
        there is one schedule to price.  Kept because the benchmark harness records it.
    """

    variant: str
    n_ranks: int
    grid: Optional[Tuple[int, int]]
    backend: Optional[str]
    solver: str
    machine: str
    problem: ProblemSpec
    breakdown: TimeBreakdown
    words_per_iteration: Optional[float] = None

    @property
    def schedule(self) -> str:
        return "blocking"

    def summary(self) -> str:
        grid = f"{self.grid[0]}x{self.grid[1]}" if self.grid else "-"
        words = (
            f", {self.words_per_iteration:.4g} words/iter"
            if self.words_per_iteration is not None
            else ""
        )
        return (
            f"variant={self.variant}, p={self.n_ranks}, grid={grid}, "
            f"predicted {self.breakdown.total:.4g} s/iter{words} "
            f"(machine={self.machine})"
        )

    def to_dict(self) -> dict:
        """JSON-able form stored in :class:`~repro.core.result.NMFResult` metadata."""
        return {
            "variant": self.variant,
            "n_ranks": self.n_ranks,
            "grid": list(self.grid) if self.grid else None,
            "backend": self.backend,
            "solver": self.solver,
            "machine": self.machine,
            "problem": self.problem.to_dict(),
            "breakdown": self.breakdown.as_dict(),
            "words_per_iteration": self.words_per_iteration,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExecutionPlan":
        grid = payload.get("grid")
        return cls(
            variant=payload["variant"],
            n_ranks=payload["n_ranks"],
            grid=tuple(grid) if grid else None,
            backend=payload.get("backend"),
            solver=payload.get("solver", ""),
            machine=payload.get("machine", ""),
            problem=ProblemSpec.from_dict(payload["problem"]),
            breakdown=TimeBreakdown.from_saved(payload["breakdown"]),
            words_per_iteration=payload.get("words_per_iteration"),
        )


def _candidate_variant_names(variants: Optional[Sequence[str]]) -> List[str]:
    from repro.core.variants import get_variant

    if variants is None:
        return list(PLANNER_VARIANT_ORDER)
    return [get_variant(v).name for v in variants]


def _modeled_grids(name: str, p: int) -> tuple:
    """The grids the model prices ``name`` on; none when it has no model."""
    from repro.comm.grid import factor_pairs

    if name == "sequential":
        return (None,) if p == 1 else ()
    return {"naive": (None,), "hpc1d": ((p, 1),), "hpc2d": tuple(factor_pairs(p))}.get(name, ())


def _priced(name: str, problem: ProblemSpec, p: int, grid, machine):
    """``(breakdown, words)`` per iteration of ``name`` on ``grid``."""
    from repro.perf.model import (
        hpc_breakdown,
        hpc_words_per_iteration,
        naive_breakdown,
        naive_words_per_iteration,
    )

    if name == "sequential":
        return naive_breakdown(problem, 1, machine=machine), 0.0
    if name == "naive":
        return (
            naive_breakdown(problem, p, machine=machine),
            naive_words_per_iteration(problem, p),
        )
    return (
        hpc_breakdown(problem, p, grid=grid, machine=machine),
        hpc_words_per_iteration(problem, p, grid=grid),
    )


def plan_candidates(
    problem: ProblemSpec,
    p: int,
    machine=None,
    variants: Optional[Sequence[str]] = None,
    grid: Optional[Tuple[int, int]] = None,
    backend: Optional[str] = None,
    solver: str = "bpp",
) -> List[ExecutionPlan]:
    """Score every (variant, grid) candidate for ``problem`` on ``p`` ranks.

    Each modeled variant contributes one plan per grid it runs on:
    ``sequential`` one at ``p = 1`` only, ``naive`` one without a grid,
    ``hpc1d`` one on ``(p, 1)`` and ``hpc2d`` one per ``pr × pc``
    factorization of ``p``.  Returns the plans sorted by predicted
    per-iteration seconds, cheapest first; ties keep
    :data:`PLANNER_VARIANT_ORDER` order.

    Parameters
    ----------
    machine:
        :class:`~repro.perf.machine.MachineSpec` to price against; default
        the deterministic Edison constants (use
        :meth:`MachineSpec.calibrate` for the actual host).
    variants:
        Restrict to these variant names (``grid="auto"`` with an explicit
        variant plans only that variant); a name the model does not price
        contributes no plan, and an unknown one raises ``KeyError``.
    grid:
        Pin candidates to this one factorization of ``p``.  Grid-free
        variants cannot honour a pinned grid, so they are excluded; a grid
        that does not multiply to ``p`` raises.
    backend:
        Execution backend the plans will run on.  For the wire backends
        (``'socket'``/``'mpi'``) every collective is repriced at the link's
        alpha-beta costs via :meth:`MachineSpec.for_backend` — ``repro plan
        --backend socket`` therefore prices wire plans.  In-process backends
        keep the machine's own network constants.
    solver:
        Local NLS solver recorded on each plan for provenance.  The NLS
        term is BPP's closed form at the machine's ``nls_efficiency``; which
        engine runs BPP is not a planning input.
    """
    from repro.perf.machine import edison_machine

    if p < 1:
        raise ValueError(f"number of ranks must be >= 1, got {p}")
    if grid is not None and grid[0] * grid[1] != p:
        raise ValueError(f"grid {grid[0]}x{grid[1]} does not match p={p}")
    machine = machine or edison_machine()
    # Wire backends (socket/mpi) swap the network alpha/beta for the link's
    # measured/default costs; in-process backends return machine unchanged.
    machine = machine.for_backend(backend)

    plans: List[ExecutionPlan] = []
    for name in _candidate_variant_names(variants):
        for candidate_grid in _modeled_grids(name, p):
            if grid is not None and (
                candidate_grid is None or tuple(candidate_grid) != tuple(grid)
            ):
                continue
            breakdown, words = _priced(name, problem, p, candidate_grid, machine)
            plans.append(
                ExecutionPlan(
                    variant=name,
                    n_ranks=p,
                    grid=tuple(candidate_grid) if candidate_grid else None,
                    backend=backend,
                    solver=solver,
                    machine=machine.name,
                    problem=problem,
                    breakdown=breakdown,
                    words_per_iteration=words,
                )
            )
    if not plans:
        pinned = f" with grid pinned to {grid[0]}x{grid[1]}" if grid is not None else ""
        raise ValueError(
            f"no registered variant can model {problem.describe()} on p={p}"
            f"{pinned} (variants considered: {_candidate_variant_names(variants)})"
        )
    plans.sort(key=lambda plan: plan.breakdown.total)  # stable: ties keep order
    return plans


def make_plan(
    problem: ProblemSpec,
    p: int,
    machine=None,
    variants: Optional[Sequence[str]] = None,
    grid: Optional[Tuple[int, int]] = None,
    backend: Optional[str] = None,
    solver: str = "bpp",
) -> ExecutionPlan:
    """The cheapest :class:`ExecutionPlan` for ``problem`` on ``p`` ranks.

    This is the argmin of :func:`plan_candidates` — the §5 selection rule
    generalized to every modeled variant and every factorization of ``p``.
    """
    return plan_candidates(
        problem,
        p,
        machine=machine,
        variants=variants,
        grid=grid,
        backend=backend,
        solver=solver,
    )[0]
