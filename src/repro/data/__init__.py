"""Dataset generators matching the paper's evaluation (§6.1.1).

Four workloads drive the paper's experiments; each has a generator here plus
scaled-down presets for measured runs on a single machine:

* **DSYN** — dense uniform random matrix with additive Gaussian noise
  (:func:`~repro.data.synthetic.dense_synthetic`), paper scale
  172,800 × 115,200;
* **SSYN** — sparse Erdős–Rényi matrix of the same shape with density 0.001
  (:func:`~repro.data.synthetic.sparse_synthetic`);
* **Video** — a tall-and-skinny dense matrix whose columns are RGB video
  frames of a mostly static scene with moving objects
  (:func:`~repro.data.video.video_matrix`), paper scale 1,013,400 × 2,400;
* **Webbase** — the adjacency matrix of a large directed web-like graph with
  a power-law degree distribution (:func:`~repro.data.webgraph.web_graph_matrix`),
  paper scale 1,000,005 nodes / 3.1 M edges.

:mod:`~repro.data.lowrank` additionally provides planted nonnegative low-rank
matrices used by the recovery tests, and :mod:`~repro.data.registry` names the
paper-scale and measured-scale configurations used by the planner CLI and the examples.
"""

from repro.data.synthetic import dense_synthetic, sparse_synthetic
from repro.data.lowrank import planted_lowrank
from repro.data.video import video_matrix, VideoSceneConfig
from repro.data.webgraph import web_graph_matrix
from repro.data.registry import DatasetSpec, DATASETS, load_dataset, measured_scale, paper_scale

__all__ = [
    "dense_synthetic",
    "sparse_synthetic",
    "planted_lowrank",
    "video_matrix",
    "VideoSceneConfig",
    "web_graph_matrix",
    "DatasetSpec",
    "DATASETS",
    "load_dataset",
    "measured_scale",
    "paper_scale",
]
