"""Tests for the synthetic video dataset (background/foreground structure)."""

import numpy as np
import pytest

from repro.core.api import fit
from repro.data.video import (
    VideoSceneConfig,
    background_foreground_split,
    video_frames,
    video_matrix,
)


class TestVideoGeneration:
    def test_video_matrix_is_pixels_by_frames(self):
        config = VideoSceneConfig(height=16, width=20, channels=3, frames=12)
        A = video_matrix(config)
        assert A.shape == (16 * 20 * 3, 12)
        assert (config.pixels, config.frames) == A.shape

    def test_nonnegative(self):
        A = video_matrix(height=8, width=8, frames=6)
        assert np.all(A >= 0)

    def test_deterministic_in_seed(self):
        a = video_matrix(height=8, width=8, frames=6, seed=3)
        b = video_matrix(height=8, width=8, frames=6, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_config_and_overrides_mutually_exclusive(self):
        with pytest.raises(TypeError):
            video_matrix(VideoSceneConfig(), frames=3)

    def test_frames_have_moving_content(self):
        frames = video_frames(VideoSceneConfig(height=16, width=16, frames=10, seed=1))
        # Consecutive frames must differ (objects move).
        assert not np.allclose(frames[..., 0], frames[..., 5])

    def test_tall_and_skinny_aspect(self):
        config = VideoSceneConfig(height=32, width=32, frames=20)
        m, n = config.pixels, config.frames
        assert m > 50 * n  # the regime where the 1D grid is optimal


class TestBackgroundSubtraction:
    def test_low_rank_background_is_separable(self):
        config = VideoSceneConfig(height=16, width=16, frames=30, n_objects=2, seed=4,
                                  noise_std=0.0)
        A = video_matrix(config)
        res = fit(A, k=4, variant="sequential", max_iters=25, seed=0)
        background, foreground = background_foreground_split(A, res.W, res.H)
        assert background.shape == A.shape
        assert foreground.shape == A.shape
        # The rank-4 background explains most of the energy...
        assert res.relative_error < 0.35
        # ...and the foreground carries only a small fraction of it (the
        # moving rectangles occupy a small part of each frame).
        assert np.linalg.norm(foreground) < 0.6 * np.linalg.norm(A)
