"""Closed-form per-iteration cost model (paper §4.3, §5 and Table 2).

For each algorithm variant the model produces a per-task
:class:`~repro.comm.profiler.TimeBreakdown` — the same six categories as the
paper's Figure 3 — from a :class:`~repro.plan.problem.ProblemSpec` (any
problem dimensions, not just the paper datasets; a
:class:`~repro.data.registry.DatasetSpec` or an in-memory matrix is coerced
automatically), the process count ``p`` (and grid ``pr × pc``), and a
:class:`~repro.perf.machine.MachineSpec`.

This module holds the closed forms only.  The planner
(:mod:`repro.plan.planner`) says which prices which variant: ``sequential``
is :func:`naive_breakdown` at ``p = 1``, ``naive`` is :func:`naive_breakdown`,
and ``hpc1d`` / ``hpc2d`` are :func:`hpc_breakdown` on ``(p, 1)`` / on each
``pr × pc`` grid.  One :func:`repro.plan.plan_candidates` row is one modeled
Figure-3 / Table-3 cell.

Computation terms
-----------------
* **MM** — multiplying the local data block by a factor block, twice per
  iteration: ``4 m n k / p`` flops dense, ``4 nnz k / p`` sparse (derived
  from :func:`repro.core.local_ops.dense_matmul_flops` /
  :func:`~repro.core.local_ops.sparse_matmul_flops`, the single source of
  truth for the §4.3 matmul counts).
* **Gram** — local Gram contributions: HPC-NMF computes ``(m + n) k² / p``
  flops; Naive computes the *full* ``(m + n) k²`` redundantly on every rank
  (drawback (2) of §4.3).
* **NLS** — ``C_BPP((m+n)/p, k)``, modeled as ``bpp_iterations`` pivot rounds
  of one k×k Cholesky plus back-substitution over the local columns.

Communication terms (§2.3 collective costs)
-------------------------------------------
* Naive: two all-gathers of the whole factors, ``alpha·2 log p +
  beta·(p-1)/p·(m+n)k`` total.
* HPC-NMF: two all-reduces of ``k²`` words, two all-gathers and two
  reduce-scatters whose word counts are ``(pr-1)nk/p + (pc-1)mk/p`` each
  (the §5 expressions); with the optimal grid this is ``O(√(mnk²/p))``, and
  with the 1D grid ``O(nk)``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.comm.grid import choose_grid
from repro.comm.profiler import TimeBreakdown
from repro.core.local_ops import dense_matmul_flops, sparse_matmul_flops
from repro.nls.bpp import bpp_flops_estimate
from repro.perf.machine import MachineSpec, edison_machine
from repro.plan.problem import ProblemSpec, as_problem

__all__ = [
    "bpp_flops",
    "dense_flops_per_iteration",
    "sparse_flops_per_iteration",
    "naive_breakdown",
    "hpc_breakdown",
    "naive_words_per_iteration",
    "hpc_words_per_iteration",
    "table2_costs",
]


# ---------------------------------------------------------------------------
# flop counts
# ---------------------------------------------------------------------------

def dense_flops_per_iteration(m: int, n: int, k: int, p: int) -> float:
    """Leading-order local matmul flops per iteration, dense case (``4mnk/p``).

    Two local multiplies per iteration (``A_ij Hᵀ`` and ``Wᵀ A_ij``), each
    counted by :func:`repro.core.local_ops.dense_matmul_flops`.
    """
    return 2.0 * dense_matmul_flops(m, n, k) / p


def sparse_flops_per_iteration(nnz: float, k: int, p: int) -> float:
    """Leading-order local matmul flops per iteration, sparse case (``4·nnz·k/p``)."""
    return 2.0 * sparse_matmul_flops(nnz, k) / p


def bpp_flops(k: int, columns: float, iterations: float, grouping_factor: float = 0.5) -> float:
    """Model of ``C_BPP(k, c)``: per pivot round, a k×k Cholesky for every
    column whose passive set is unique plus a triangular back-substitution for
    every column.

    ``grouping_factor`` is the fraction of columns that cannot share a
    factorization with another column (1.0 = every column pays its own
    ``k³/3``; 0.0 = perfect grouping).  The paper leaves ``C_BPP`` symbolic;
    this estimate gives the NLS bars a realistic magnitude (between quadratic
    and cubic in k per column), which is what produces the paper's observation
    that the Webbase problem is NLS-bound and that its time does not scale
    linearly with k.

    The formula itself lives next to the kernels that realise it
    (:func:`repro.nls.bpp.bpp_flops_estimate`); this is the model-side alias.
    """
    return bpp_flops_estimate(
        k, columns, iterations=iterations, grouping_factor=grouping_factor
    )


# ---------------------------------------------------------------------------
# per-variant breakdowns
# ---------------------------------------------------------------------------

def _mm_seconds(problem: ProblemSpec, machine: MachineSpec, k: int, p: int) -> float:
    if problem.is_sparse:
        return machine.sparse_mm_seconds(sparse_flops_per_iteration(problem.nnz_estimate, k, p))
    return machine.dense_mm_seconds(dense_flops_per_iteration(problem.m, problem.n, k, p))


def _nls_seconds(problem: ProblemSpec, machine: MachineSpec, k: int, p: int) -> float:
    columns = (problem.m + problem.n) / p
    return machine.nls_seconds(
        bpp_flops(k, columns, machine.bpp_iterations, machine.bpp_grouping_factor)
    )


def naive_breakdown(
    spec,
    k: int,
    p: int,
    machine: Optional[MachineSpec] = None,
) -> TimeBreakdown:
    """Per-iteration, per-task predicted seconds for Algorithm 2 (Naive).

    ``spec`` may be a :class:`~repro.plan.problem.ProblemSpec`, a registered
    :class:`~repro.data.registry.DatasetSpec`, or an in-memory matrix.
    """
    problem = as_problem(spec, k)
    machine = machine or edison_machine()
    coll = machine.collectives()
    m, n = problem.m, problem.n

    mm = _mm_seconds(problem, machine, k, p)
    gram = machine.gram_seconds((m + n) * k**2)       # redundant: not divided by p
    nls = _nls_seconds(problem, machine, k, p)
    # Two all-gathers: W (m×k words) and H (n×k words).
    all_gather = coll.all_gather(p, m * k) + coll.all_gather(p, n * k)

    return TimeBreakdown.from_parts(
        MM=mm,
        Gram=gram,
        NLS=nls,
        AllGather=all_gather,
        ReduceScatter=0.0,
        AllReduce=0.0,
    )


def hpc_breakdown(
    spec,
    k: int,
    p: int,
    grid: Optional[Tuple[int, int]] = None,
    machine: Optional[MachineSpec] = None,
) -> TimeBreakdown:
    """Per-iteration, per-task predicted seconds for Algorithm 3 on a grid.

    ``grid=None`` applies the paper's grid-selection rule; pass ``(p, 1)`` for
    the HPC-NMF-1D variant the paper benchmarks.  ``spec`` is coerced like in
    :func:`naive_breakdown`.
    """
    problem = as_problem(spec, k)
    machine = machine or edison_machine()
    coll = machine.collectives()
    m, n = problem.m, problem.n
    if grid is None:
        grid = choose_grid(m, n, p)
    pr, pc = grid
    if pr * pc != p:
        raise ValueError(f"grid {pr}x{pc} does not match p={p}")

    mm = _mm_seconds(problem, machine, k, p)
    gram = machine.gram_seconds((m + n) * k**2 / p)
    nls = _nls_seconds(problem, machine, k, p)

    # Lines 4 and 10: two all-reduces of the k×k Gram matrices over all p ranks.
    all_reduce = 2.0 * coll.all_reduce(p, k * k)

    # Lines 5 and 11: all-gather H_j over proc columns (pr ranks, n k / pc
    # gathered words) and W_i over proc rows (pc ranks, m k / pr words).
    all_gather = coll.all_gather(pr, n * k / pc) + coll.all_gather(pc, m * k / pr)

    # Lines 7 and 13: reduce-scatter V (m k / pr words over pc ranks) and
    # Y (n k / pc words over pr ranks).
    reduce_scatter = coll.reduce_scatter(pc, m * k / pr) + coll.reduce_scatter(pr, n * k / pc)

    return TimeBreakdown.from_parts(
        MM=mm,
        Gram=gram,
        NLS=nls,
        AllGather=all_gather,
        ReduceScatter=reduce_scatter,
        AllReduce=all_reduce,
    )


# ---------------------------------------------------------------------------
# per-variant communication volume (the words Table 2 bounds)
# ---------------------------------------------------------------------------

def naive_words_per_iteration(spec, k: int, p: int) -> float:
    """Critical-path words one rank moves per Naive iteration.

    Two all-gathers of the full factors: ``(p-1)/p · (m+n)k`` — the ledger
    convention of :class:`~repro.comm.cost.CostLedger`.
    """
    problem = as_problem(spec, k)
    if p <= 1:
        return 0.0
    return (p - 1) / p * (problem.m + problem.n) * k


def hpc_words_per_iteration(
    spec, k: int, p: int, grid: Optional[Tuple[int, int]] = None
) -> float:
    """Critical-path words one rank moves per HPC-NMF iteration on a grid.

    The §5 expression in ledger convention: the factor all-gathers and
    reduce-scatters move ``(pr-1)/pr · nk/pc + (pc-1)/pc · mk/pr`` words
    each, and the two ``k²`` all-reduces move ``2·(p-1)/p·k²`` each.
    """
    problem = as_problem(spec, k)
    if p <= 1:
        return 0.0
    if grid is None:
        grid = choose_grid(problem.m, problem.n, p)
    pr, pc = grid
    if pr * pc != p:
        raise ValueError(f"grid {pr}x{pc} does not match p={p}")
    factor_words = 0.0
    if pr > 1:
        factor_words += (pr - 1) / pr * problem.n * k / pc
    if pc > 1:
        factor_words += (pc - 1) / pc * problem.m * k / pr
    all_reduce_words = 2.0 * (p - 1) / p * k * k
    # ×2: each factor's all-gather has a mirroring reduce-scatter (and there
    # are two all-reduces), exactly as the CostLedger records them.
    return 2.0 * factor_words + 2.0 * all_reduce_words


# ---------------------------------------------------------------------------
# Table 2: asymptotic costs
# ---------------------------------------------------------------------------

def table2_costs(m: int, n: int, k: int, p: int) -> dict:
    """Evaluate the asymptotic expressions of Table 2 (dense case), in
    flops/words/messages/words-of-memory per iteration.

    Only the leading terms that appear in the table are evaluated (constants
    dropped, ``C_BPP`` omitted), so the entries are directly comparable with
    the paper's table and with the communication lower bound.
    """
    tall = m / p > n
    hpc_words = n * k if tall else math.sqrt(m * n * k * k / p)
    lower_bound_words = min(math.sqrt(m * n * k * k / p), n * k)
    return {
        "naive": {
            "flops": m * n * k / p + (m + n) * k**2,
            "words": (m + n) * k,
            "messages": math.log2(p) if p > 1 else 0.0,
            "memory": m * n / p + (m + n) * k,
        },
        "hpc": {
            "flops": m * n * k / p,
            "words": hpc_words,
            "messages": math.log2(p) if p > 1 else 0.0,
            "memory": m * n / p + (m * k / p if tall else math.sqrt(m * n * k * k / p)) + (n * k if tall else 0.0),
        },
        "lower_bound": {
            "flops": m * n * k / p,
            "words": lower_bound_words,
            "messages": math.log2(p) if p > 1 else 0.0,
            "memory": m * n / p + (m + n) * k / p,
        },
    }
