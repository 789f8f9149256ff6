"""Tests for the streaming (incremental) NMF extension."""

import numpy as np
import pytest

from repro.comm.profiler import TaskCategory
from repro.core.streaming import StreamingNMF
from repro.data.video import VideoSceneConfig, video_matrix
from repro.util.errors import ShapeError


class TestStreamingNMFBasics:
    def test_invalid_parameters(self):
        with pytest.raises(ShapeError):
            StreamingNMF(n_pixels=100, k=5, window=1)
        with pytest.raises(ShapeError):
            StreamingNMF(n_pixels=100, k=5, window=10, refresh_every=0)
        with pytest.raises(ShapeError):
            StreamingNMF(n_pixels=4, k=10, window=20)

    @pytest.mark.parametrize("refresh_iters", [0, -3])
    def test_refresh_iters_below_one_rejected(self, refresh_iters):
        with pytest.raises(ShapeError, match="refresh_iters"):
            StreamingNMF(n_pixels=100, k=5, window=10, refresh_iters=refresh_iters)

    def test_frame_shape_validated(self):
        model = StreamingNMF(n_pixels=50, k=3, window=8)
        with pytest.raises(ShapeError):
            model.push_frame(np.zeros(49))

    def test_window_is_sliding(self):
        model = StreamingNMF(n_pixels=20, k=2, window=5, refresh_every=100, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(9):
            model.push_frame(rng.random(20))
        assert model.frames_seen == 9
        assert model.current_window().shape == (20, 5)
        assert model.current_coefficients().shape == (2, 5)

    def test_residual_nonnegative(self):
        model = StreamingNMF(n_pixels=30, k=3, window=6, seed=1)
        rng = np.random.default_rng(1)
        residual = model.push_frame(rng.random(30))
        assert residual.shape == (30,)
        assert np.all(residual >= 0)


class TestStreamingOnVideo:
    def test_background_model_improves_with_refreshes(self):
        config = VideoSceneConfig(height=12, width=12, channels=1, frames=40,
                                  n_objects=2, seed=3, noise_std=0.0)
        A = video_matrix(config)
        model = StreamingNMF(n_pixels=A.shape[0], k=4, window=20,
                             refresh_every=5, refresh_iters=2, seed=4)
        errors = []
        for frame_idx in range(A.shape[1]):
            model.push_frame(A[:, frame_idx])
            if frame_idx >= 10:
                errors.append(model.window_error())
        # After the model has seen enough frames, the window error should be
        # small (the background is genuinely low rank) and must not diverge as
        # the window slides (it fluctuates slightly as objects enter/leave).
        assert errors[-1] < 0.35
        assert max(errors) < 0.4

    def test_moving_object_shows_up_in_residual(self):
        config = VideoSceneConfig(height=16, width=16, channels=1, frames=30,
                                  n_objects=1, object_size=5, seed=5, noise_std=0.0)
        A = video_matrix(config)
        model = StreamingNMF(n_pixels=A.shape[0], k=3, window=15,
                             refresh_every=5, seed=6)
        residual = None
        for frame_idx in range(A.shape[1]):
            residual = model.push_frame(A[:, frame_idx])
        # The residual of the last frame should be concentrated: its largest
        # entries (the moving object) dominate its energy.
        energy = np.sort(residual**2)[::-1]
        top_fraction = energy[: max(1, energy.size // 10)].sum() / max(energy.sum(), 1e-12)
        assert top_fraction > 0.5


class TestRefreshIsAlgorithmThree:
    def test_frames_with_negative_entries_stream_through_a_refresh(self):
        rng = np.random.default_rng(7)
        model = StreamingNMF(n_pixels=30, k=3, window=6, refresh_every=4, seed=2)
        for _ in range(8):
            model.push_frame(rng.standard_normal(30))
        assert model.current_window().min() < 0
        assert model.breakdown.get(TaskCategory.NLS) > 0  # two refreshes ran
        assert np.all(np.isfinite(model.W)) and np.all(model.W >= 0)

    def test_refreshes_are_profiled(self):
        rng = np.random.default_rng(8)
        model = StreamingNMF(n_pixels=30, k=3, window=6, refresh_every=3, seed=2)
        model.push_frame(rng.random(30))
        model.push_frame(rng.random(30))
        assert model.breakdown.total == 0.0  # no refresh yet
        model.push_frame(rng.random(30))
        first = model.breakdown
        assert first.get(TaskCategory.NLS) > 0 and first.get(TaskCategory.MM) > 0
        for _ in range(3):
            model.push_frame(rng.random(30))
        assert model.breakdown.total > first.total
