"""Performance model: closed-form costs and the machine they are priced on.

:mod:`repro.perf.model` holds the per-iteration, per-task closed forms of
Naive / HPC-NMF-1D / HPC-NMF-2D (the formulas of §4.3, §5 and Table 2);
:mod:`repro.perf.machine` the alpha-beta-gamma :class:`MachineSpec` they are
evaluated under (Edison constants, or this host via
``MachineSpec.calibrate()``).

The planning layer (:mod:`repro.plan`) says which closed form prices which
variant, and picks variants and grids with them at ``fit(...,
variant="auto")`` time.  A modeled Figure-3 / Table-3 cell is one
:func:`repro.plan.plan_candidates` row (``repro plan SSYN -k 10
-p 600``); a measured cell is one ``fit(...).breakdown`` — see
``examples/scaling_study.py``.  Timing a fit end to end or layer by layer is
``benchmarks/layered``'s job, not this package's.
"""

from repro.perf.machine import (
    EDISON_NODE,
    MachineSpec,
    edison_machine,
)
from repro.perf.model import (
    dense_flops_per_iteration,
    sparse_flops_per_iteration,
    naive_breakdown,
    naive_words_per_iteration,
    hpc_breakdown,
    hpc_words_per_iteration,
    table2_costs,
)

__all__ = [
    "MachineSpec",
    "EDISON_NODE",
    "edison_machine",
    "dense_flops_per_iteration",
    "sparse_flops_per_iteration",
    "naive_breakdown",
    "naive_words_per_iteration",
    "hpc_breakdown",
    "hpc_words_per_iteration",
    "table2_costs",
]
