"""Named dataset configurations: the paper's four datasets at two scales.

Each of the paper's four datasets appears twice:

* the **paper-scale** spec records the exact dimensions and sparsity of the
  dataset the paper used; these drive the *analytic* performance model that
  regenerates Figure 3 / Table 3 at 600 cores (no data is materialised);
* the **measured-scale** spec is a proportionally scaled-down instance small
  enough to factorize for real on a single machine with the SPMD backend;
  these drive the examples, the CLI and the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.data.synthetic import dense_synthetic, sparse_synthetic
from repro.data.video import VideoSceneConfig, video_matrix
from repro.data.webgraph import web_graph_matrix


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one dataset instance.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"ssyn-paper"`` or ``"video-small"``.
    kind:
        One of ``"dense"`` / ``"sparse"``.
    m, n:
        Matrix dimensions.
    density:
        Nonzero fraction for sparse datasets (None for dense).
    description:
        One-line description used by reports.
    loader:
        Zero-argument callable materialising the matrix, or ``None`` for
        paper-scale specs that exist only as dimensions for the analytic
        model.
    """

    name: str
    kind: str
    m: int
    n: int
    density: Optional[float] = None
    description: str = ""
    loader: Optional[Callable] = None

    @property
    def nnz_estimate(self) -> float:
        """Estimated nonzeros (m*n for dense, density*m*n for sparse)."""
        if self.kind == "sparse" and self.density is not None:
            return self.density * self.m * self.n
        return float(self.m) * float(self.n)

    @property
    def is_sparse(self) -> bool:
        return self.kind == "sparse"

    def load(self):
        """Materialise the matrix (raises for paper-scale, model-only specs)."""
        if self.loader is None:
            raise ValueError(
                f"dataset {self.name!r} is a paper-scale spec used only by the "
                "analytic model; use its measured-scale counterpart to get data"
            )
        return self.loader()


def _video_small() -> "object":
    return video_matrix(VideoSceneConfig(height=40, width=30, channels=3, frames=64, seed=7))


#: All registered dataset specs.
DATASETS: Dict[str, DatasetSpec] = {
    # ---- paper-scale (model only) -----------------------------------------
    "dsyn-paper": DatasetSpec(
        name="dsyn-paper",
        kind="dense",
        m=172_800,
        n=115_200,
        description="Dense synthetic, uniform + Gaussian noise (paper scale)",
    ),
    "ssyn-paper": DatasetSpec(
        name="ssyn-paper",
        kind="sparse",
        m=172_800,
        n=115_200,
        density=0.001,
        description="Sparse synthetic Erdős–Rényi, density 0.001 (paper scale)",
    ),
    "video-paper": DatasetSpec(
        name="video-paper",
        kind="dense",
        m=1_013_400,
        n=2_400,
        description="Street-intersection video, frames as columns (paper scale)",
    ),
    "webbase-paper": DatasetSpec(
        name="webbase-paper",
        kind="sparse",
        m=1_000_005,
        n=1_000_005,
        density=3_105_536 / (1_000_005 * 1_000_005),
        description="webbase-1M directed web graph (paper scale)",
    ),
    # ---- measured-scale (materialisable) ----------------------------------
    "dsyn-small": DatasetSpec(
        name="dsyn-small",
        kind="dense",
        m=864,
        n=576,
        description="Dense synthetic, 1/200-per-side scale of DSYN",
        loader=lambda: dense_synthetic(864, 576, seed=11),
    ),
    "ssyn-small": DatasetSpec(
        name="ssyn-small",
        kind="sparse",
        m=3_456,
        n=2_304,
        density=0.01,
        description="Sparse synthetic Erdős–Rényi (scaled; density raised to keep nnz/row similar)",
        loader=lambda: sparse_synthetic(3_456, 2_304, density=0.01, seed=11),
    ),
    "video-small": DatasetSpec(
        name="video-small",
        kind="dense",
        m=3_600,
        n=64,
        description="Synthetic street scene, 40x30 RGB frames as columns",
        loader=_video_small,
    ),
    "webbase-small": DatasetSpec(
        name="webbase-small",
        kind="sparse",
        m=4_000,
        n=4_000,
        density=12_000 / (4_000 * 4_000),
        description="Synthetic power-law directed graph, ~12k edges",
        loader=lambda: web_graph_matrix(4_000, 12_000, seed=5),
    ),
}

#: Mapping from the paper's dataset names to (paper, measured) registry keys.
PAPER_DATASETS = {
    "DSYN": ("dsyn-paper", "dsyn-small"),
    "SSYN": ("ssyn-paper", "ssyn-small"),
    "Video": ("video-paper", "video-small"),
    "Webbase": ("webbase-paper", "webbase-small"),
}


def load_dataset(name: str):
    """Materialise a registered dataset by name."""
    try:
        spec = DATASETS[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(DATASETS)}") from None
    return spec.load()


def paper_scale(paper_name: str) -> DatasetSpec:
    """The paper-scale spec for one of 'DSYN', 'SSYN', 'Video', 'Webbase'."""
    return DATASETS[PAPER_DATASETS[paper_name][0]]


def measured_scale(paper_name: str) -> DatasetSpec:
    """The measured-scale spec for one of 'DSYN', 'SSYN', 'Video', 'Webbase'."""
    return DATASETS[PAPER_DATASETS[paper_name][1]]
