"""Panel-streamed reduce-scatter: overlap the big MMs with their collectives.

Algorithm 3's dominant per-iteration transfers are the line-7 and line-13
reduce-scatters, each fed by the local matmul directly before it (lines 6 and
12): issued as one collective, the whole input only exists once the whole MM
is done and nothing can overlap it.  But the reduce-scatter's split
boundaries (the ``w_scatter_counts`` / ``h_scatter_counts`` sub-blocking of
:mod:`repro.dist`) also tile the MM itself: the columns of ``V_ijᵀ``
(``Y_ij``) destined for rank ``t`` depend only on the matching row (column)
panel of the local data block.  :func:`stream_reduce_scatter` therefore

1. computes panel ``t`` of the MM (one tiled GEMM),
2. immediately issues a nonblocking :meth:`~repro.comm.communicator.Comm.
   ireduce_scatter` carrying *only* that panel (``counts`` are zero for every
   rank but ``t``), so panel ``t``'s communication overlaps panel ``t+1``'s
   GEMM,
3. after the last panel, waits the handles in issue order and hands rank
   ``t`` its own reduced sub-block.

This is the only way the Algorithm 3 loop runs lines 6-7 and 12-13; on an
eager communicator (``overlap=False``, lockstep, mpi) each panel's collective
simply completes at step 2.

Byte-identity
-------------
Panel ``t``'s collective combines, in rank order, exactly the slices a
monolithic ``reduce_scatter`` of the assembled MM output would combine for
rank ``t`` — same values, same order, same destination buffer — so the
streamed result is bitwise equal to it (pinned by
``tests/comm/test_panels.py``).  Whether a handle completes at issue or in
the background moves no byte: the panels, their order and the rank-order
combine are the same.

Ledger purity
-------------
One modeled §2.3 reduce-scatter must stay one ledger entry regardless of how
many physical panels carried it.  Every per-panel issue passes
``record=False`` and the helper books a single
:meth:`~repro.comm.communicator.Comm.record_collective` with the full input's
word count once the stream completes — calls, words, messages and reduction
flops all match the monolithic call's entry exactly.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.comm.nonblocking import drain, finish
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
    compute_category: TaskCategory = TaskCategory.MM,
) -> np.ndarray:
    """Tiled MM + per-panel nonblocking reduce-scatter over ``comm``.

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
        ``t``).  Timed under ``compute_category``.
    counts:
        The monolithic call's scatter split (``w_scatter_counts`` /
        ``h_scatter_counts``); empty panels (count 0) are still issued so
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
        Books panel GEMMs under ``compute_category`` and the collective wait
        under ``ReduceScatter`` (+ ``HiddenComm`` for the overlapped part).

    Returns this rank's reduced sub-block (``out`` when provided).
    """
    counts = [int(c) for c in counts]
    if len(counts) != comm.size:
        raise ValueError(
            f"counts must have one panel per rank: got {len(counts)} panels "
            f"on a size-{comm.size} communicator"
        )
    handles = []
    total_words = 0.0
    try:
        for t in range(len(counts)):
            if profiler is not None:
                with profiler.task(compute_category):
                    panel = compute_panel(t)
            else:
                panel = compute_panel(t)
            panel = np.asarray(panel)
            if panel.shape[axis] != counts[t]:
                raise ValueError(
                    f"panel {t} has extent {panel.shape[axis]} along axis {axis}, "
                    f"expected counts[{t}] = {counts[t]}"
                )
            total_words += panel.size * panel.itemsize / 8.0
            panel_counts = [0] * len(counts)
            panel_counts[t] = counts[t]
            handles.append(
                comm.ireduce_scatter(
                    panel,
                    counts=panel_counts,
                    axis=axis,
                    out=out if t == comm.rank else None,
                    record=False,
                )
            )
    except BaseException:
        drain(handles)  # earlier panels are in flight: unpin ``out``, empty the queue
        raise
    result = None
    for t, handle in enumerate(handles):
        reduced = finish(handle, profiler, TaskCategory.REDUCE_SCATTER)
        if t == comm.rank:
            result = reduced
    comm.record_collective("reduce_scatter", total_words)
    return result
