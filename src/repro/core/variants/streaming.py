"""The ``streaming`` variant: sliding-window incremental NMF (§6.1.1)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import NMFConfig
from repro.core.observers import LoopControl, notify_finish
from repro.core.result import NMFResult
from repro.core.streaming import StreamingNMF
from repro.core.variants.base import Variant, register_variant
from repro.util.errors import ShapeError
from repro.util.validation import check_matrix, check_nonnegative, is_sparse


@register_variant
class StreamingVariant(Variant):
    """Replay the columns of ``A`` as a frame stream through :class:`StreamingNMF`.

    Each column is pushed as one frame ("one observer event per frame"); the
    result's ``W`` is the final basis and ``H`` the coefficients of the last
    window, so ``W @ H`` reconstructs the most recent ``window`` frames.  For
    a live feed, drive :class:`repro.core.streaming.StreamingNMF` directly.

    The stream length is the *data*, not a solver knob: the loop runs once
    per column of ``A`` and ``config.max_iters`` does not apply (the
    per-refresh ANLS depth is ``refresh_iters``).  ``breakdown`` sums the
    refreshes' profiles (:attr:`StreamingNMF.breakdown`).  ``config.tol`` and
    observers still stop the stream early, and ``compute_error=False`` skips
    the per-frame window-error measurement.

    Extra options: ``window`` (frames kept, default ``min(n, 60)``),
    ``refresh_every`` and ``refresh_iters`` (warm-started ANLS refresh
    cadence/depth).
    """

    name = "streaming"
    summary = "Sliding-window incremental NMF over the columns of A"
    parallelizable = False
    sparse_ok = False

    def run(
        self,
        A,
        config: NMFConfig,
        observers=(),
        window: Optional[int] = None,
        refresh_every: int = 10,
        refresh_iters: int = 2,
    ) -> NMFResult:
        A = check_matrix(A, "A")
        if is_sparse(A):
            raise ShapeError("the streaming variant needs a dense frame matrix")
        check_nonnegative(A, "A")
        m, n = A.shape
        if n < 2:
            raise ShapeError(f"streaming needs at least 2 frames (columns), got {n}")
        window = min(window if window is not None else 60, n)

        model = StreamingNMF(
            n_pixels=m,
            k=config.k,
            window=window,
            refresh_every=refresh_every,
            refresh_iters=refresh_iters,
            solver=config.solver,
            seed=config.seed,
        )
        control = LoopControl(config, observers, variant="streaming").start()

        import time

        for frame_idx in range(n):
            start = time.perf_counter()
            model.push_frame(A[:, frame_idx])
            rel_error = (
                model.window_error() if config.compute_error else float("nan")
            )
            if control.record(
                frame_idx,
                relative_error=rel_error,
                seconds=time.perf_counter() - start,
                factors=(model.W, model.current_coefficients()),
            ):
                break

        result = NMFResult(
            W=np.ascontiguousarray(model.W),
            H=np.ascontiguousarray(model.current_coefficients()),
            config=config,
            iterations=control.iterations,
            history=control.history,
            converged=control.converged,
            variant="streaming",
            breakdown=model.breakdown,
        )
        return notify_finish(observers, result)
