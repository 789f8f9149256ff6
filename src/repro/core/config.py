"""Configuration for the NMF algorithms.

A single :class:`NMFConfig` drives every variant, so experiments can hold
everything fixed and vary exactly one knob (solver, grid shape, rank), the
way the paper's evaluation does.  *Which* algorithm runs is not a config
field: it is the variant name passed to :func:`repro.fit` (see
:mod:`repro.core.variants`) and recorded as ``NMFResult.variant``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.util.errors import ShapeError


@dataclass(frozen=True)
class NMFConfig:
    """Options shared by every NMF run.

    Parameters
    ----------
    k:
        Target rank of the factorization (the paper uses 10-50).
    max_iters:
        Number of outer ANLS iterations.
    tol:
        Relative-error improvement threshold for early stopping; ``0`` runs
        exactly ``max_iters`` iterations (the paper's timing experiments fix
        the iteration count).
    solver:
        Local NLS solver name: ``"bpp"`` (default, as in the paper),
        ``"hals"`` or ``"mu"`` (:func:`repro.nls.available_solvers`).  How
        BPP runs inside is the solver's business, not a fit option: it uses
        the kernels registry's default engine (:mod:`repro.nls.kernels`).
        HALS and MU make one sweep per half-iteration (MPI-FAUN's one update
        of each factor per alternating iteration).
    seed:
        Seed used to initialise ``H`` (§6.1.3: the same seed is reused across
        algorithms so they perform the same computations).
    n_ranks:
        Number of SPMD ranks ``p`` for the parallel variants (``1`` runs a
        single-rank SPMD world; sequential variants ignore it).
    grid:
        Explicit ``(pr, pc)`` processor grid for HPC-NMF; ``None`` applies the
        paper's grid-selection rule.
    compute_error:
        Whether to compute the relative objective each iteration (adds one
        small all-reduce, as discussed in §5's communication-optimality
        argument).
    backend:
        Execution backend for the parallel algorithms, by registry name:
        ``"thread"`` (default; one thread per rank, running in parallel
        where BLAS releases the GIL), ``"lockstep"`` (deterministic rank-ordered
        scheduling, scales to hundreds of simulated ranks), ``"process"``
        (one OS process per rank over shared memory — true parallelism,
        the measured-speedup substrate), ``"socket"`` (the same processes
        with every collective as frames on a TCP mesh) or ``"mpi"`` (an
        ``mpirun`` job, when ``mpi4py`` is installed).  See
        :mod:`repro.comm.backends`.  Ignored by the sequential algorithm.
    overlap:
        Accepted and ignored.  It used to choose between completing the
        parallel loops' collectives in the background (a helper thread per
        communicator) and at their issue point; the background engine never
        measured a win and is gone, so every collective is a blocking call
        on every backend (:mod:`repro.core.spmd_loop`).  The field — and
        the CLI's ``--no-overlap`` — stay until the benchmark harness stops
        passing ``overlap=``.

    Where each rank's block of ``A`` lives is not an option: it follows the
    input (see :meth:`repro.dist.distmatrix.DistMatrix2D.from_global`).
    """

    k: int
    max_iters: int = 30
    tol: float = 0.0
    solver: str = "bpp"
    seed: int = 42
    n_ranks: int = 1
    grid: Optional[Tuple[int, int]] = None
    compute_error: bool = True
    backend: str = "thread"
    overlap: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ShapeError(f"rank k must be >= 1, got {self.k}")
        if self.max_iters < 1:
            raise ShapeError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tol < 0:
            raise ShapeError(f"tol must be >= 0, got {self.tol}")
        if self.n_ranks < 1:
            raise ShapeError(f"n_ranks must be >= 1, got {self.n_ranks}")
        if not isinstance(self.backend, str) or not self.backend:
            raise ShapeError(
                f"backend must be a backend registry name, got {self.backend!r}"
            )
        if not isinstance(self.overlap, bool):
            raise ShapeError(f"overlap must be a bool, got {self.overlap!r}")

    def with_options(self, **kwargs) -> "NMFConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def make_solver(self):
        """Instantiate the configured local NLS solver."""
        from repro.nls import make_solver

        return make_solver(self.solver)
