"""NMF-as-a-service: model store, batched projection server, refresh.

The serving layer answers the question the training subsystems leave open:
once HPC-NMF has factored ``A ≈ WH``, how do *fresh* columns get coefficients
at interactive latency?  Topic inference for new documents, cluster
assignment for new graph vertices, background subtraction for live video
frames — all are the projection ``h = argmin_{h≥0} ‖x − Wh‖``, one small NLS
problem per column, served through the same kernels registry the training
loops use.

Public surface:

* :class:`ModelStore` / :class:`ModelEntry` — named, versioned, validated
  model artifacts with a cached, load-time-checked Gram and hot reload
  (:mod:`repro.serve.store`);
* :func:`project` / :func:`validate_columns` / :class:`ModelRefresher` — the
  projection engine and the incremental-refresh hook
  (:mod:`repro.serve.project`);
* :class:`ProjectionService` / :class:`ProjectionServer` — the continuous
  batcher and the asyncio HTTP front end (:mod:`repro.serve.server`);
* :class:`ServeStats` — queue/batch/latency/stage-clock telemetry
  (:mod:`repro.serve.stats`);
* one worker process per available CPU on one listening socket, worker 0
  owning ingest, reload and ``/stats`` (:mod:`repro.serve.supervisor`);
* the error hierarchy with its HTTP status mapping
  (:mod:`repro.serve.errors`).
"""

from repro._lazy import lazy_exports
from repro.serve.errors import (
    DeadlineExceededError,
    ModelLoadError,
    ModelNotFoundError,
    ProjectionRequestError,
    ServeError,
    ServerOverloadedError,
)
from repro.serve.project import (
    ModelRefresher,
    project,
    project_blocks,
    projection_residuals,
    validate_columns,
)
from repro.serve.stats import LatencyWindow, ServeStats, percentile
from repro.serve.store import ModelEntry, ModelStore

# The HTTP front end (and with it asyncio and orjson) loads on first use, so
# projecting in-process or running another CLI subcommand never imports it.
# The rest stays eager: the function ``project`` shares its name with the
# submodule, and a lazy lookup would find the submodule once it is loaded.
_SERVER_EXPORTS = ("ProjectionResponse", "ProjectionServer", "ProjectionService", "run_self_test")

__all__ = [
    "DeadlineExceededError",
    "LatencyWindow",
    "ModelEntry",
    "ModelLoadError",
    "ModelNotFoundError",
    "ModelRefresher",
    "ModelStore",
    "percentile",
    "project",
    "project_blocks",
    "projection_residuals",
    "ProjectionRequestError",
    *_SERVER_EXPORTS,
    "ServeError",
    "ServerOverloadedError",
    "ServeStats",
    "validate_columns",
]
__getattr__ = lazy_exports(__name__, {"repro.serve.server": _SERVER_EXPORTS})
