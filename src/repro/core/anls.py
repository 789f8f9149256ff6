"""Algorithm 1: the sequential ANLS framework, as Algorithm 3 on a 1 × 1 grid.

Algorithm 3 is Algorithm 1 with its products distributed; at ``p = 1`` every
collective hands back its input.  So the sequential reference is not a loop
of its own: :func:`anls_nmf` runs :func:`repro.core.hpc_nmf.hpc_nmf` on a
one-rank world, :class:`~repro.comm.communicator.SelfComm`, in this process
(no execution backend is launched).  The parallel variants are validated
against it: with the same seed and the same local solver they produce the
same factors up to floating-point reordering, and at ``p = 1`` bit for bit.

The W-subproblem ``min_{W>=0} ||A − W H||`` is solved through its normal
equations ``(H Hᵀ) Wᵀ = H Aᵀ``: the solver is handed ``gram = H Hᵀ`` and
``rhs = H Aᵀ`` and returns ``Wᵀ``, whose transpose is copied into W's
C-ordered home before line 12 multiplies it; the H-subproblem uses
``gram = Wᵀ W`` and ``rhs = Wᵀ A``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.config import NMFConfig
from repro.core.hpc_nmf import hpc_nmf
from repro.core.observers import IterationObserver
from repro.core.result import NMFResult
from repro.core.spmd_loop import run_in_process


def anls_nmf(
    A,
    config: NMFConfig,
    observers: Optional[Sequence[IterationObserver]] = None,
) -> NMFResult:
    """Run sequential ANLS NMF (Algorithm 1) on a dense or sparse matrix ``A``.

    Parameters
    ----------
    A:
        ``m × n`` nonnegative matrix (ndarray or scipy sparse).
    config:
        Run options; ``n_ranks``, ``grid`` and ``backend`` are ignored.
    observers:
        :class:`~repro.core.observers.IterationObserver` objects notified
        after every outer iteration with the live global ``W`` and ``H``;
        any of them may request an early stop.

    Returns
    -------
    NMFResult
        With factors ``W (m × k)`` and ``H (k × n)`` and, when
        ``config.compute_error`` is set, the per-iteration objective history.
    """
    return run_in_process(hpc_nmf, A, config, observers, "sequential")
