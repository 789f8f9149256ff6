"""Synthetic video matrix (the paper's "Video" dataset, substituted).

The paper records two minutes of a busy street intersection at 20 fps and
reshapes every RGB frame into a column, giving a dense 1,013,400 × 2,400
matrix; NMF then separates the (low-rank) background from the moving objects
left in the residual.

We cannot ship that recording, so this module synthesises a scene with the
same structure: a static background with smooth spatial gradients and a few
slowly varying illumination modes (making the background genuinely low rank),
plus a handful of rectangles moving across the frame (the "traffic"), plus
pixel noise.  Reshaping frames into columns produces the same tall-and-skinny
dense matrix shape — the regime in which the paper's grid-selection rule picks
a 1D processor grid — and background subtraction via NMF behaves the same way:
the rank-k reconstruction captures the background and the residual highlights
the moving rectangles (this is exactly what the video example demonstrates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class VideoSceneConfig:
    """Parameters of the synthetic street scene.

    The defaults produce a small scene suitable for tests and examples; the
    paper-scale configuration (used only by the analytic model) is 4K-like
    frames over 2,400 frames.
    """

    height: int = 48
    width: int = 64
    channels: int = 3
    frames: int = 120
    n_objects: int = 4
    object_size: int = 8
    background_modes: int = 3
    noise_std: float = 0.01
    seed: int = 0

    @property
    def pixels(self) -> int:
        return self.height * self.width * self.channels


def _background(config: VideoSceneConfig, rng: np.random.Generator) -> np.ndarray:
    """A temporally near-constant, spatially smooth, low-rank background."""
    h, w, c, f = config.height, config.width, config.channels, config.frames
    yy, xx = np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w), indexing="ij")
    spatial_modes = [np.ones((h, w)), yy, xx, yy * xx, np.sin(np.pi * yy), np.cos(np.pi * xx)]
    spatial_modes = spatial_modes[: max(config.background_modes, 1)]
    frames = np.zeros((h, w, c, f))
    t = np.linspace(0, 1, f)
    for mode_idx, mode in enumerate(spatial_modes):
        # Slow temporal modulation (e.g. lighting drift) keeps rank low but > 1.
        temporal = 0.6 + 0.4 * np.cos(2 * np.pi * (mode_idx + 1) * t / 10.0)
        color = rng.random(c) * 0.5 + 0.25
        frames += (
            mode[:, :, None, None] * color[None, None, :, None] * temporal[None, None, None, :]
        )
    return frames / len(spatial_modes)


def _moving_objects(config: VideoSceneConfig, rng: np.random.Generator) -> np.ndarray:
    """Bright rectangles translating across the frame (the 'traffic')."""
    h, w, c, f = config.height, config.width, config.channels, config.frames
    frames = np.zeros((h, w, c, f))
    size = config.object_size
    for _ in range(config.n_objects):
        row = rng.integers(0, max(h - size, 1))
        start_col = rng.integers(-w // 2, w // 2)
        speed = rng.uniform(0.3, 1.5) * (1 if rng.random() < 0.5 else -1)
        color = rng.random(c) * 0.8 + 0.2
        for frame in range(f):
            col = int(start_col + speed * frame) % w
            c_lo, c_hi = col, min(col + size, w)
            frames[row: row + size, c_lo:c_hi, :, frame] += color[None, None, :]
    return frames


def video_frames(config: VideoSceneConfig) -> np.ndarray:
    """The synthetic scene as an ``(height, width, channels, frames)`` array in [0, ~2]."""
    rng = np.random.default_rng(config.seed)
    frames = _background(config, rng) + _moving_objects(config, rng)
    if config.noise_std > 0:
        frames = frames + rng.normal(0.0, config.noise_std, size=frames.shape)
    return np.maximum(frames, 0.0)


def video_matrix(config: VideoSceneConfig | None = None, **overrides) -> np.ndarray:
    """The frames-as-columns matrix (``pixels × frames``) of the synthetic scene.

    >>> A = video_matrix(frames=10, height=8, width=8)
    >>> A.shape
    (192, 10)
    """
    if config is None:
        config = VideoSceneConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a VideoSceneConfig or keyword overrides, not both")
    frames = video_frames(config)
    return np.ascontiguousarray(
        frames.reshape(config.pixels, config.frames)
    )


def background_foreground_split(
    A: np.ndarray, W: np.ndarray, H: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Split a video matrix into background (``WH``) and foreground residual.

    Returns ``(background, foreground)`` with ``foreground = A - WH`` clipped
    at zero — the moving objects, as in the paper's description of the video
    use case.
    """
    background = W @ H
    foreground = np.maximum(A - background, 0.0)
    return background, foreground
