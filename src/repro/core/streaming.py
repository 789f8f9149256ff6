"""Incremental (streaming) NMF for frame-by-frame video processing.

The paper's video scenario (§6.1.1) notes that "only the last minute or two of
video is taken from the live video camera" and cites the incremental
adjustment algorithm of Kim, He & Park (its reference [12]).  This module
provides that capability as an extension: a sliding-window NMF whose factors
are *warm-started* from the previous window instead of being recomputed from
scratch, which is what makes per-frame updating affordable.

The update rule per new frame (one new column ``a``):

1. append ``a`` to the window and drop the oldest column if the window is full;
2. compute the new column's coefficients ``h = argmin_{h>=0} ‖a − W h‖``
   (a single small NLS solve with the existing Gram matrix);
3. every ``refresh_every`` frames, run a few full ANLS sweeps over the window
   warm-started from the current factors to let the basis ``W`` drift with the
   scene: Algorithm 3's loop on a 1 × 1 grid with ``initial=(W, H)``, profiled
   like any fit.

This is deliberately the simple, well-understood variant of incremental NMF:
the point is to exercise the warm-start path of the solvers and to support the
streaming-video example, not to reproduce reference [12] (a different paper).
"""

from __future__ import annotations

from collections import deque
from typing import Deque

import numpy as np

from repro.comm.profiler import TimeBreakdown
from repro.core.config import NMFConfig
from repro.core.hpc_nmf import hpc_nmf
from repro.core.local_ops import gram
from repro.core.objective import relative_error
from repro.core.spmd_loop import run_on_self
from repro.util.errors import ShapeError
from repro.util.validation import check_rank


class StreamingNMF:
    """Sliding-window NMF with warm-started updates.

    Parameters
    ----------
    n_pixels:
        Number of rows of the data (pixels per frame).
    k:
        Rank of the background model.
    window:
        Number of most-recent frames kept in the working window.
    refresh_every:
        Run ``refresh_iters`` full ANLS sweeps every this many appended frames.
    refresh_iters:
        Number of warm-started ANLS sweeps per refresh (at least 1).
    solver, seed:
        As for batch NMF.

    :attr:`breakdown` sums every refresh's profile (per-frame solves are not
    profiled).
    """

    def __init__(
        self,
        n_pixels: int,
        k: int,
        window: int = 60,
        refresh_every: int = 10,
        refresh_iters: int = 2,
        solver: str = "bpp",
        seed: int = 0,
    ):
        if window < 2:
            raise ShapeError(f"window must be >= 2 frames, got {window}")
        check_rank(k, n_pixels, window)
        if refresh_every < 1:
            raise ShapeError(f"refresh_every must be >= 1, got {refresh_every}")
        if refresh_iters < 1:
            raise ShapeError(f"refresh_iters must be >= 1, got {refresh_iters}")
        self.n_pixels = int(n_pixels)
        self.k = int(k)
        self.window = int(window)
        self.refresh_every = int(refresh_every)
        self.refresh_iters = int(refresh_iters)
        self._refresh_config = NMFConfig(
            k=k, solver=solver, seed=seed, max_iters=refresh_iters, compute_error=False
        )
        self._solver = self._refresh_config.make_solver()
        self.breakdown = TimeBreakdown.zeros()
        self._frames: Deque[np.ndarray] = deque(maxlen=window)
        self._coeffs: Deque[np.ndarray] = deque(maxlen=window)
        rng = np.random.default_rng(seed)
        self.W = rng.random((n_pixels, k))
        self._frames_seen = 0

    # -- streaming interface -------------------------------------------------
    @property
    def frames_seen(self) -> int:
        return self._frames_seen

    def current_window(self) -> np.ndarray:
        """The window as a pixels × frames matrix (columns oldest to newest)."""
        if not self._frames:
            return np.zeros((self.n_pixels, 0))
        return np.column_stack(list(self._frames))

    def current_coefficients(self) -> np.ndarray:
        """The k × frames coefficient matrix matching :meth:`current_window`."""
        if not self._coeffs:
            return np.zeros((self.k, 0))
        return np.column_stack(list(self._coeffs))

    def push_frame(self, frame: np.ndarray) -> np.ndarray:
        """Ingest one frame (length ``n_pixels``); returns its foreground residual.

        The residual ``max(frame − W h, 0)`` highlights the moving objects of
        this frame under the current background model.
        """
        frame = np.asarray(frame, dtype=np.float64).reshape(-1)
        if frame.shape != (self.n_pixels,):
            raise ShapeError(
                f"frame must have {self.n_pixels} pixels, got {frame.shape}"
            )
        # Coefficients of the new frame under the current basis.
        gram_w = gram(self.W, transpose_first=True)
        rhs = self.W.T @ frame
        h = self._solver.solve(gram_w, rhs[:, None])[:, 0]

        self._frames.append(frame)
        self._coeffs.append(h)
        self._frames_seen += 1

        if self._frames_seen % self.refresh_every == 0 and len(self._frames) >= 2:
            self._refresh()
            # Recompute this frame's coefficients under the refreshed basis.
            gram_w = gram(self.W, transpose_first=True)
            h = self._solver.solve(gram_w, (self.W.T @ frame)[:, None])[:, 0]
            self._coeffs[-1] = h

        return np.maximum(frame - self.W @ h, 0.0)

    def background(self) -> np.ndarray:
        """The current background estimate for the newest frame."""
        if not self._coeffs:
            return np.zeros(self.n_pixels)
        return self.W @ self._coeffs[-1]

    def window_error(self) -> float:
        """Relative reconstruction error over the current window."""
        A = self.current_window()
        if A.shape[1] == 0:
            return 0.0
        return relative_error(A, self.W, self.current_coefficients())

    # -- internal ------------------------------------------------------------
    def _refresh(self) -> None:
        """A few warm-started ANLS sweeps over the window (not checked: frames may be < 0)."""
        result = run_on_self(
            hpc_nmf, self.current_window(), self._refresh_config, None, "streaming",
            initial=(self.W, self.current_coefficients()),
        )
        self.W = result.W
        self.breakdown = self.breakdown + result.breakdown
        self._coeffs = deque(result.H.T, maxlen=self.window)  # one column per frame
