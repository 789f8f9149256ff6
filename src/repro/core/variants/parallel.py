"""The SPMD variants: Algorithm 2 (``naive``) and Algorithm 3 (``hpc1d``/``hpc2d``).

Each run launches ``config.n_ranks`` ranks of the configured execution
backend (``config.backend``; see :mod:`repro.comm.backends`), executes the
per-rank program from :mod:`repro.core.naive` / :mod:`repro.core.hpc_nmf`,
and assembles the per-rank factor blocks into one global
:class:`~repro.core.result.NMFResult`.
"""

from __future__ import annotations

from repro.core.config import NMFConfig
from repro.core.hpc_nmf import hpc_nmf
from repro.core.naive import naive_parallel_nmf
from repro.core.result import NMFResult
from repro.core.spmd_loop import run_on_backend
from repro.core.variants.base import Variant, register_variant


class _SPMDVariant(Variant):
    """Capability flags of the SPMD variants."""

    parallelizable = True
    sparse_ok = True


@register_variant
class NaiveVariant(_SPMDVariant):
    """Algorithm 2: all-gathers whole factor matrices every iteration."""

    name = "naive"
    label = "Naive"
    summary = "Algorithm 2: Naive-Parallel-NMF baseline ((m+n)k words/iter)"

    def predicted_breakdown(self, problem, p, grid=None, machine=None):
        from repro.perf.model import naive_breakdown

        return naive_breakdown(problem, problem.k, p, machine=machine)

    def predicted_words(self, problem, p, grid=None):
        from repro.perf.model import naive_words_per_iteration

        return naive_words_per_iteration(problem, problem.k, p)

    def run(self, A, config: NMFConfig, observers=()) -> NMFResult:
        return run_on_backend(naive_parallel_nmf, A, config, observers, self.name)


class _HpcVariant(_SPMDVariant):
    """Algorithm 3 scaffolding; subclasses pin the grid-selection mode."""

    def _default_grid(self, problem, p):
        """The grid this variant runs on when none is given explicitly."""
        raise NotImplementedError

    def predicted_breakdown(self, problem, p, grid=None, machine=None):
        from repro.perf.model import hpc_breakdown

        grid = grid or self._default_grid(problem, p)
        return hpc_breakdown(problem, problem.k, p, grid=grid, machine=machine)

    def predicted_words(self, problem, p, grid=None):
        from repro.perf.model import hpc_words_per_iteration

        grid = grid or self._default_grid(problem, p)
        return hpc_words_per_iteration(problem, problem.k, p, grid=grid)

    def run(self, A, config: NMFConfig, observers=()) -> NMFResult:
        return run_on_backend(hpc_nmf, A, config, observers, self.name)


@register_variant
class Hpc1DVariant(_HpcVariant):
    """Algorithm 3 on the 1D grid ``pr = p, pc = 1`` (the paper's HPC-NMF-1D)."""

    name = "hpc1d"
    label = "HPC-NMF-1D"
    summary = "Algorithm 3 on a 1D grid (pr = p, pc = 1)"

    def _default_grid(self, problem, p):
        return (p, 1)

    def candidate_grids(self, problem, p):
        return ((p, 1),)

    def run(self, A, config: NMFConfig, observers=()) -> NMFResult:
        grid = config.grid or (config.n_ranks, 1)
        return super().run(A, config.with_options(grid=grid), observers)


@register_variant
class Hpc2DVariant(_HpcVariant):
    """Algorithm 3 with the §5 grid-selection rule (the paper's contribution)."""

    name = "hpc2d"
    label = "HPC-NMF-2D"
    summary = "Algorithm 3: HPC-NMF on the §5-selected pr x pc grid"

    def _default_grid(self, problem, p):
        from repro.comm.grid import choose_grid

        return choose_grid(problem.m, problem.n, p)

    def candidate_grids(self, problem, p):
        """Every factorization of ``p`` — the planner's brute-force search space."""
        from repro.comm.grid import factor_pairs

        return tuple(factor_pairs(p))
