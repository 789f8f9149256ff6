"""Rendering of planner candidate tables (the ``repro plan`` CLI output).

The table is paper-Table-2 style: one row per (variant, grid) candidate with
the predicted MM / Gram / NLS / communication split, the total, and the
predicted words moved per iteration; the planner's pick is starred.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.plan.planner import ExecutionPlan

#: Column order of the per-task split (computation, then §2.3 collectives).
_TASKS = ("MM", "Gram", "NLS", "AllGather", "ReduceScatter", "AllReduce")


def _format_row(cells: Sequence[str], widths: Sequence[int]) -> str:
    return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))


def render_plan_table(plans: Sequence[ExecutionPlan]) -> str:
    """Fixed-width candidate table for a list of plans (cheapest first).

    The first (cheapest) plan is marked with ``*`` in the leading column.
    All times are predicted per-iteration seconds.
    """
    if not plans:
        raise ValueError("no plans to render")
    problem = plans[0].problem
    title = (
        f"Execution plan candidates for {problem.describe()} on p={plans[0].n_ranks} "
        f"ranks (machine={plans[0].machine}; per-iteration predicted seconds)"
    )

    headers = ["", "variant", "grid"] + list(_TASKS) + ["total", "words/iter"]
    rows: List[List[str]] = []
    for i, plan in enumerate(plans):
        grid = f"{plan.grid[0]}x{plan.grid[1]}" if plan.grid else "-"
        words = (
            f"{plan.words_per_iteration:.4g}"
            if plan.words_per_iteration is not None
            else "-"
        )
        row = ["*" if i == 0 else "", plan.variant, grid]
        row += [f"{plan.breakdown.get(task):.4f}" for task in _TASKS]
        row += [f"{plan.breakdown.total:.4f}", words]
        rows.append(row)

    widths = [
        max(len(headers[i]), max(len(r[i]) for r in rows)) for i in range(len(headers))
    ]
    lines = [title, _format_row(headers, widths), _format_row(["-" * w for w in widths], widths)]
    lines += [_format_row(r, widths) for r in rows]
    chosen = plans[0]
    lines.append("")
    lines.append(f"* chosen: {chosen.summary()}")
    return "\n".join(lines)
