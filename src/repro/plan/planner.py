"""The planner: choose variant and processor grid from the cost model (§5).

The paper's central planning result is that the algorithm flavor and the
``pr × pc`` grid should be *derived* from the per-iteration cost model: pick
``pr : pc ∝ m : n`` to hit the bandwidth lower bound, and fall back to the
1D or naive layouts when the shape makes them cheaper.  This module closes
that loop for arbitrary problems:

* :func:`plan_candidates` enumerates every registered variant that exposes
  an analytic cost hook (:meth:`repro.core.variants.Variant.
  predicted_breakdown`), crossed with each variant's candidate grids (for
  ``hpc2d``, **all** factorizations of ``p``), scores each candidate under
  one :class:`~repro.perf.machine.MachineSpec`, and returns the table
  sorted by predicted per-iteration seconds;
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

#: Preference order for tie-breaking and table layout; registry variants not
#: listed here are still planned (after these) if they expose a cost hook.
PLANNER_VARIANT_ORDER: Tuple[str, ...] = ("sequential", "hpc2d", "hpc1d", "naive")


@dataclass(frozen=True)
class ExecutionPlan:
    """One scored execution candidate: what to run and what the model expects.

    Attributes
    ----------
    variant:
        Variant registry name (``"hpc2d"``, ``"naive"``, ...).
    n_ranks:
        SPMD rank count ``p`` the plan was scored for.
    grid:
        ``(pr, pc)`` processor grid, or ``None`` for grid-free variants
        (sequential, naive).
    backend, solver:
        Execution backend and local NLS solver recorded for provenance.
    kernel:
        BPP kernel the plan was priced for (``None`` = default pricing, i.e.
        :data:`repro.nls.kernels.DEFAULT_KERNEL`); see :mod:`repro.nls.kernels`.
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
        Always ``"blocking"`` (read-only): every collective completes where
        it is issued (:mod:`repro.comm.nonblocking`), so there is one
        schedule to price.  Kept because the benchmark harness records it.
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
    kernel: Optional[str] = None

    @property
    def schedule(self) -> str:
        return "blocking"

    @property
    def seconds_per_iteration(self) -> float:
        """Predicted per-iteration seconds (the planner's objective)."""
        return self.breakdown.total

    def summary(self) -> str:
        grid = f"{self.grid[0]}x{self.grid[1]}" if self.grid else "-"
        kernel = f", kernel={self.kernel}" if self.kernel else ""
        words = (
            f", {self.words_per_iteration:.4g} words/iter"
            if self.words_per_iteration is not None
            else ""
        )
        return (
            f"variant={self.variant}, p={self.n_ranks}, grid={grid}, "
            f"predicted {self.breakdown.total:.4g} s/iter{words} "
            f"(machine={self.machine}{kernel})"
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
            "kernel": self.kernel,
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
            breakdown=TimeBreakdown.from_parts(**payload["breakdown"]),
            words_per_iteration=payload.get("words_per_iteration"),
            kernel=payload.get("kernel"),
        )


def _candidate_variant_names(variants: Optional[Sequence[str]]) -> List[str]:
    from repro.core.variants import available_variants, variant_name

    if variants is not None:
        return [variant_name(v) for v in variants]
    names = [v for v in PLANNER_VARIANT_ORDER]
    names += [v for v in available_variants() if v not in PLANNER_VARIANT_ORDER]
    return names


def plan_candidates(
    problem: ProblemSpec,
    p: int,
    machine=None,
    variants: Optional[Sequence[str]] = None,
    grid: Optional[Tuple[int, int]] = None,
    backend: Optional[str] = None,
    solver: str = "bpp",
    kernel: Optional[str] = None,
) -> List[ExecutionPlan]:
    """Score every (variant, grid) candidate for ``problem`` on ``p`` ranks.

    Candidates come from the variant registry: each registered variant that
    implements the analytic cost hook contributes one plan per entry of its
    ``candidate_grids(problem, p)`` (all ``pr × pc`` factorizations of ``p``
    for ``hpc2d``).  Returns the plans sorted by predicted per-iteration
    seconds, cheapest first; ties keep :data:`PLANNER_VARIANT_ORDER` order.

    Parameters
    ----------
    machine:
        :class:`~repro.perf.machine.MachineSpec` to price against; default
        the deterministic Edison constants (use
        :meth:`MachineSpec.calibrate` for the actual host).
    variants:
        Restrict to these registry names (``grid="auto"`` with an explicit
        variant plans only that variant).
    grid:
        Pin candidates to this one factorization of ``p``.  Grid-free
        variants cannot honour a pinned grid, so they are excluded; a grid
        that does not multiply to ``p`` raises.
    kernel:
        BPP kernel to price the NLS term for (``'scalar'``, ``'batched'``,
        ``'numba'`` or ``'auto'``); resolved against the kernels registry,
        then threaded through the cost hooks via
        :meth:`MachineSpec.for_kernel`.  ``None`` keeps default-kernel
        (``batched``) pricing.
    backend:
        Execution backend the plans will run on.  For the wire backends
        (``'socket'``/``'mpi'``) every collective is repriced at the link's
        alpha-beta costs via :meth:`MachineSpec.for_backend` — ``repro plan
        --backend socket`` therefore prices wire plans.  In-process backends
        keep the machine's own network constants.
    """
    from repro.core.variants import get_variant
    from repro.perf.machine import edison_machine

    if p < 1:
        raise ValueError(f"number of ranks must be >= 1, got {p}")
    if grid is not None and grid[0] * grid[1] != p:
        raise ValueError(f"grid {grid[0]}x{grid[1]} does not match p={p}")
    machine = machine or edison_machine()
    if kernel is not None:
        from repro.nls.kernels import resolve_kernel

        kernel = resolve_kernel(kernel)  # normalizes 'auto', rejects typos
        machine = machine.for_kernel(kernel)
    # Wire backends (socket/mpi) swap the network alpha/beta for the link's
    # measured/default costs; in-process backends return machine unchanged.
    machine = machine.for_backend(backend)

    plans: List[ExecutionPlan] = []
    for name in _candidate_variant_names(variants):
        variant = get_variant(name)
        if p > 1 and not variant.parallelizable:
            continue
        if problem.is_sparse and not variant.sparse_ok:
            continue
        for candidate_grid in variant.candidate_grids(problem, p):
            if grid is not None and (
                candidate_grid is None or tuple(candidate_grid) != tuple(grid)
            ):
                continue
            breakdown = variant.predicted_breakdown(
                problem, p, grid=candidate_grid, machine=machine
            )
            if breakdown is None:
                continue  # variant does not model itself; not plannable
            words = variant.predicted_words(problem, p, grid=candidate_grid)
            plans.append(
                ExecutionPlan(
                    variant=variant.name,
                    n_ranks=p,
                    grid=tuple(candidate_grid) if candidate_grid else None,
                    backend=backend,
                    solver=solver,
                    machine=machine.name,
                    problem=problem,
                    breakdown=breakdown,
                    words_per_iteration=words,
                    kernel=kernel,
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
    kernel: Optional[str] = None,
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
        kernel=kernel,
    )[0]
