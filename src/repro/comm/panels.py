"""Panel-streamed reduce-scatter: the big MMs feed their collectives panel by panel.

Algorithm 3's dominant per-iteration transfers are the line-7 and line-13
reduce-scatters, each fed by the local matmul directly before it (lines 6 and
12).  The reduce-scatter's split boundaries (the ``w_scatter_counts`` /
``h_scatter_counts`` sub-blocking of :mod:`repro.dist`) also tile the MM
itself: the columns of ``V_ijᵀ`` (``Y_ij``) destined for rank ``t`` depend
only on the matching row (column) panel of the local data block.
:func:`stream_reduce_scatter` therefore

1. computes panel ``t`` of the MM (one tiled GEMM),
2. reduce-scatters *only* that panel (``counts`` are zero for every rank but
   ``t``) with a blocking call the moment it is computed, so the full MM
   output is never materialised,
3. hands rank ``t`` its own reduced sub-block.

This is the only way the Algorithm 3 loop runs lines 6-7 and 12-13.  On a
size-1 communicator there is one panel and nothing to reduce: the result is
the panel the MM wrote (see :mod:`repro.comm.communicator`).

Byte-identity
-------------
Panel ``t``'s collective combines, in rank order, exactly the slices a
monolithic ``reduce_scatter`` of the assembled MM output would combine for
rank ``t`` — same values, same order — so the streamed result is bitwise
equal to it (pinned by ``tests/comm/test_panels.py``).

Ledger purity
-------------
One modeled §2.3 reduce-scatter must stay one ledger entry regardless of how
many physical panels carried it.  Every panel's blocking ``reduce_scatter``
runs with the communicator's ledger silenced, and the helper books a single
:meth:`~repro.comm.communicator.Comm.record_collective` with the full input's
word count once the stream completes — calls, words, messages and reduction
flops all match the monolithic call's entry exactly.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.comm.profiler import Profiler, TaskCategory

__all__ = ["panel_slices", "stream_reduce_scatter"]


def panel_slices(counts: Sequence[int]) -> List[slice]:
    """The per-panel index ranges a ``counts`` split induces along its axis."""
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(int)
    return [slice(int(offsets[t]), int(offsets[t + 1])) for t in range(len(counts))]


def stream_reduce_scatter(
    comm,
    compute_panel: Callable[[int], np.ndarray],
    counts: Sequence[int],
    axis: int,
    out: Optional[np.ndarray],
    profiler: Optional[Profiler] = None,
) -> np.ndarray:
    """Tiled MM + per-panel reduce-scatter over ``comm``.

    Parameters
    ----------
    comm:
        The communicator the monolithic reduce-scatter would run on (the
        grid's row or column communicator).  ``comm.size`` must equal
        ``len(counts)``.
    compute_panel:
        ``compute_panel(t) -> ndarray`` producing panel ``t`` of the MM
        output: the slice of the full input whose extent along ``axis`` is
        ``counts[t]`` (and which the monolithic call would scatter to rank
        ``t``).  Timed under ``MM``.
    counts:
        The monolithic call's scatter split (``w_scatter_counts`` /
        ``h_scatter_counts``); empty panels (count 0) still run their collective so
        every rank runs the same collective schedule.
    axis:
        Scatter axis of the monolithic call (1 for both ``V_ijᵀ`` and
        ``Y_ij``: the MM products are ``k × rows``, see
        :mod:`repro.core.local_ops`).
    out:
        This rank's receive buffer for its own sub-block (panel
        ``t == comm.rank``); foreign panels produce empty results that are
        discarded.
    profiler:
        Books panel GEMMs under ``MM`` and the collectives
        under ``ReduceScatter`` (none on a size-1 communicator).

    Returns this rank's reduced sub-block: ``out`` when provided and
    ``comm.size > 1``, the panel itself on a size-1 communicator.
    """
    counts = [int(c) for c in counts]
    if len(counts) != comm.size:
        raise ValueError(
            f"counts must have one panel per rank: got {len(counts)} panels "
            f"on a size-{comm.size} communicator"
        )
    if profiler is None:
        profiler = Profiler()
    result = None
    total_words = 0.0
    for t in range(len(counts)):
        with profiler.task(TaskCategory.MM):
            panel = np.asarray(compute_panel(t))
        if panel.shape[axis] != counts[t]:
            raise ValueError(
                f"panel {t} has extent {panel.shape[axis]} along axis {axis}, "
                f"expected counts[{t}] = {counts[t]}"
            )
        total_words += panel.size * panel.itemsize / 8.0
        panel_counts = [0] * len(counts)
        panel_counts[t] = counts[t]
        with profiler.collective(TaskCategory.REDUCE_SCATTER, comm), comm._silenced():
            reduced = comm.reduce_scatter(
                panel,
                counts=panel_counts,
                axis=axis,
                out=out if t == comm.rank else None,
            )
        if t == comm.rank:
            result = reduced
    comm.record_collective("reduce_scatter", total_words)
    return result
