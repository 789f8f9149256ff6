"""The planning layer: cost-model-driven variant and grid selection (§5).

This subsystem turns the analytic cost model from a read-only
figure-regeneration tool into the front half of a **plan → execute →
measure** loop:

* :class:`~repro.plan.problem.ProblemSpec` — the five numbers the model
  needs (``m``, ``n``, nnz, ``k``, word size), derivable from any dense or
  scipy-sparse matrix, any registered dataset, or bare dimensions;
* :func:`~repro.plan.planner.plan_candidates` /
  :func:`~repro.plan.planner.make_plan` — enumerate candidate variants ×
  all ``pr × pc`` factorizations of ``p``, price each with
  :mod:`repro.perf.model`'s closed forms, and return the table / the argmin;
* :class:`~repro.plan.planner.ExecutionPlan` — what to run plus what the
  model expects (per-task :class:`~repro.comm.profiler.TimeBreakdown` and
  words moved per iteration);
* :func:`~repro.plan.report.render_plan_table` — the paper-Table-2-style
  candidate table behind the ``repro plan`` CLI command.

``repro.fit(A, k, variant="auto", grid="auto")`` invokes :func:`make_plan`
and records the chosen plan on the result (``result.plan``), so the
predicted breakdown sits next to the measured one.  Machine constants
default to the paper's Edison (deterministic, used by tests and figure
regeneration); :meth:`repro.perf.machine.MachineSpec.calibrate` prices
plans for the actual host instead.
"""

from repro.plan.planner import (
    PLANNER_VARIANT_ORDER,
    ExecutionPlan,
    make_plan,
    plan_candidates,
)
from repro.plan.problem import ProblemSpec, as_problem
from repro.plan.report import render_plan_table

__all__ = [
    "ExecutionPlan",
    "PLANNER_VARIANT_ORDER",
    "ProblemSpec",
    "as_problem",
    "make_plan",
    "plan_candidates",
    "render_plan_table",
]
