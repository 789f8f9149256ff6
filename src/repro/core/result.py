"""Result containers for NMF runs.

:class:`NMFResult` carries everything the examples, tests and the benchmark
harness need: the factors, per-iteration objective values, the per-task time
breakdown (the six categories of Figure 3), the communication ledger of the
run, and provenance (which registered **variant**, execution **backend** and
NLS **solver** produced it).  Results round-trip to disk as ``.npz`` archives
through :meth:`NMFResult.save` / :meth:`NMFResult.load`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

import numpy as np

from repro.comm.profiler import TimeBreakdown
from repro.core.config import NMFConfig
from repro.util.errors import ModelLoadError

if TYPE_CHECKING:  # import would be circular at runtime (plan → variants → result)
    from repro.plan.planner import ExecutionPlan


@dataclass
class IterationStats:
    """Per-iteration diagnostics."""

    iteration: int
    objective: float
    relative_error: float
    seconds: float


@dataclass
class NMFResult:
    """Outcome of an NMF run (sequential or parallel).

    Attributes
    ----------
    W, H:
        The nonnegative factors, ``m × k`` and ``k × n``.  For parallel runs
        these are the assembled global factors.
    config:
        The configuration that produced this result.
    iterations:
        Number of outer iterations actually performed.
    history:
        Per-iteration statistics (empty if ``compute_error=False``).
    breakdown:
        Wall-clock seconds per task category, summed over iterations and taken
        as the max over ranks (the parallel critical path).
    ledger_summary:
        Per-collective words/messages recorded by the communicator, from rank
        0's ledger (all ranks are symmetric in these algorithms).
    n_ranks, grid_shape:
        Parallel execution geometry (1 and None for sequential runs).
    converged:
        True when the relative-error improvement dropped below ``config.tol``
        before ``max_iters`` (always False when ``tol == 0``).
    variant, backend, solver:
        Provenance: the name of the variant that produced this
        result (see :mod:`repro.core.variants`), the execution backend it ran
        on (``None`` for in-process sequential variants) and the local NLS
        solver it used.  ``backend`` and ``solver`` are filled from ``config``
        when not set explicitly; ``variant`` is whatever the producer says
        (``""`` for a hand-built result — the config does not know it).
    plan:
        The :class:`~repro.plan.planner.ExecutionPlan` the planner chose when
        the run used ``variant="auto"`` / ``grid="auto"`` (``None``
        otherwise).  Carries the predicted per-iteration
        :class:`~repro.comm.profiler.TimeBreakdown` and words moved, so
        predicted-vs-measured comparison is ``result.plan.breakdown`` next
        to ``result.breakdown``.
    """

    W: np.ndarray
    H: np.ndarray
    config: NMFConfig
    iterations: int
    history: List[IterationStats] = field(default_factory=list)
    breakdown: TimeBreakdown = field(default_factory=TimeBreakdown.zeros)
    ledger_summary: Dict[str, dict] = field(default_factory=dict)
    n_ranks: int = 1
    grid_shape: Optional[tuple] = None
    converged: bool = False
    variant: str = ""
    backend: Optional[str] = None
    solver: str = ""
    plan: Optional["ExecutionPlan"] = None

    def __post_init__(self):
        if not self.solver:
            self.solver = self.config.solver
        if self.backend is None and self.n_ranks > 1:
            self.backend = self.config.backend

    @property
    def objective(self) -> float:
        """Final objective value ``||A - WH||_F²`` (NaN if never computed)."""
        return self.history[-1].objective if self.history else float("nan")

    @property
    def relative_error(self) -> float:
        """Final relative error ``||A - WH||_F / ||A||_F`` (NaN if never computed)."""
        return self.history[-1].relative_error if self.history else float("nan")

    @property
    def objective_history(self) -> List[float]:
        return [s.objective for s in self.history]

    @property
    def relative_error_history(self) -> List[float]:
        return [s.relative_error for s in self.history]

    @property
    def seconds_per_iteration(self) -> float:
        """Mean wall-clock seconds per outer iteration (total breakdown / iterations)."""
        if self.iterations == 0:
            return 0.0
        return self.breakdown.total / self.iterations

    def reconstruction(self) -> np.ndarray:
        """The dense low-rank approximation ``W @ H``."""
        return self.W @ self.H

    def summary(self) -> str:
        """Human-readable one-paragraph summary (used by the examples)."""
        lines = [
            f"NMF result: rank k={self.config.k}, variant={self.variant}, "
            f"solver={self.solver}",
            f"  factors: W {self.W.shape}, H {self.H.shape}",
            f"  iterations: {self.iterations} (converged={self.converged})",
        ]
        if self.history:
            lines.append(
                f"  relative error: {self.history[0].relative_error:.4f} -> "
                f"{self.relative_error:.4f}"
            )
        if self.n_ranks > 1:
            lines.append(
                f"  ranks: {self.n_ranks}"
                + (f", grid {self.grid_shape[0]}x{self.grid_shape[1]}" if self.grid_shape else "")
                + (f", backend {self.backend}" if self.backend else "")
            )
        total = self.breakdown.total
        if total > 0:
            parts = ", ".join(
                f"{cat}={sec:.3f}s" for cat, sec in sorted(self.breakdown.as_dict().items())
                if sec > 0
            )
            lines.append(f"  time breakdown: total={total:.3f}s ({parts})")
        if self.plan is not None:
            lines.append(f"  plan: {self.plan.summary()}")
        return "\n".join(lines)

    def model_metadata(self) -> dict:
        """The scalar facts a model store needs to list/validate this model.

        Everything here is JSON-able and cheap to compute; the serving layer
        (:mod:`repro.serve.store`) exposes this dict per registered model so
        operators can see what is deployed without touching the factors.
        """
        return {
            "k": int(self.config.k),
            "m": int(self.W.shape[0]),
            "n": int(self.H.shape[1]),
            "variant": self.variant,
            "solver": self.solver,
            "backend": self.backend,
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "relative_error": float(self.relative_error),
        }

    # -- serialisation -------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-Python representation (factors stay ndarrays; rest is JSON-able).

        Subclass dataclass fields (e.g. ``SymNMFResult.alpha``) are included
        automatically, so variant-specific results round-trip without
        overriding this method.
        """
        config = dataclasses.asdict(self.config)
        config["grid"] = list(self.config.grid) if self.config.grid else None
        payload = {
            "W": self.W,
            "H": self.H,
            "config": config,
            "iterations": self.iterations,
            "history": [dataclasses.asdict(s) for s in self.history],
            "breakdown": self.breakdown.as_dict(),
            "ledger_summary": self.ledger_summary,
            "n_ranks": self.n_ranks,
            "grid_shape": list(self.grid_shape) if self.grid_shape else None,
            "converged": self.converged,
            "variant": self.variant,
            "backend": self.backend,
            "solver": self.solver,
            "plan": self.plan.to_dict() if self.plan is not None else None,
        }
        base_fields = {f.name for f in dataclasses.fields(NMFResult)}
        for extra in dataclasses.fields(self):
            if extra.name not in base_fields:
                payload[extra.name] = getattr(self, extra.name)
        return payload

    def save(self, path: Union[str, Path]) -> Path:
        """Write the result to ``path`` as a ``.npz`` archive.

        The factors are stored as arrays; everything else (config, history,
        breakdown, ledger, provenance) is stored as one JSON metadata string,
        so :meth:`load` reconstructs the full result without pickling.
        """
        payload = self.to_dict()
        meta_dict = {k: v for k, v in payload.items() if k not in ("W", "H")}
        meta_dict["saved_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
        meta_dict["result_class"] = type(self).__name__
        meta = json.dumps(meta_dict)
        path = Path(path)
        np.savez_compressed(path, W=self.W, H=self.H, meta=np.asarray(meta))
        # np.savez appends .npz when missing; report the real on-disk path.
        return path if path.suffix == ".npz" else path.with_name(path.name + ".npz")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "NMFResult":
        """Reconstruct a result saved by :meth:`save`.

        Loading through the base class picks the class the archive records
        (its ``result_class`` entry): a saved symmetric run comes back as
        the :class:`~repro.core.symmetric.SymNMFResult` subclass.  Archives
        older than that entry are symmetric when their variant is; any
        other result loads as a plain :class:`NMFResult`.

        A missing file, a corrupt archive, or an archive that lacks one of
        the required entries (``W``, ``H``, ``meta``) raises
        :class:`~repro.util.errors.ModelLoadError` naming the path and the
        missing key — never a raw NumPy/zipfile/OS error — so the serving
        model store can surface a diagnosable message.
        """
        path = Path(path)
        if not path.exists():
            raise ModelLoadError(
                f"model file {path} does not exist", path=path
            )
        try:
            archive = np.load(path, allow_pickle=False)
        except Exception as exc:
            raise ModelLoadError(
                f"model file {path} is not a readable .npz archive: {exc}",
                path=path,
            ) from exc
        with archive as data:
            for key in ("W", "H", "meta"):
                if key not in data.files:
                    raise ModelLoadError(
                        f"model file {path} is missing required entry {key!r} "
                        f"(found: {sorted(data.files)}); was it saved by "
                        "NMFResult.save?",
                        path=path,
                        missing_key=key,
                    )
            W = np.array(data["W"])
            H = np.array(data["H"])
            try:
                meta = json.loads(str(data["meta"]))
            except json.JSONDecodeError as exc:
                raise ModelLoadError(
                    f"model file {path} has a corrupt 'meta' entry "
                    f"(not valid JSON): {exc}",
                    path=path,
                    missing_key="meta",
                ) from exc
        for key in ("config", "iterations", "history", "breakdown", "n_ranks", "converged"):
            if key not in meta:
                raise ModelLoadError(
                    f"model file {path} metadata is missing required key {key!r}; "
                    "was it saved by an incompatible version?",
                    path=path,
                    missing_key=key,
                )
        # Keep only the options this version knows: an artifact saved by a
        # version with other fields (a since-removed schedule knob, a future
        # option) must still load; defaults fill whatever it lacks.
        known = {f.name for f in dataclasses.fields(NMFConfig)}
        config_dict = {k: v for k, v in meta["config"].items() if k in known}
        grid = config_dict.get("grid")
        config_dict["grid"] = tuple(grid) if grid else None
        # Artifacts older than the ``variant`` entry named it in the config.
        variant = meta.get("variant") or meta["config"].get("algorithm", "")
        saved_as = meta.get("result_class") or (
            "SymNMFResult" if variant == "symmetric" else NMFResult.__name__
        )
        if cls is NMFResult and saved_as == "SymNMFResult":
            from repro.core.symmetric import SymNMFResult

            cls = SymNMFResult
        base_fields = {f.name for f in dataclasses.fields(NMFResult)}
        extra = {
            f.name: meta[f.name]
            for f in dataclasses.fields(cls)
            if f.name not in base_fields and f.name in meta
        }
        plan_dict = meta.get("plan")
        plan = None
        if plan_dict:
            from repro.plan.planner import ExecutionPlan

            plan = ExecutionPlan.from_dict(plan_dict)
        grid_shape = meta.get("grid_shape")
        return cls(
            W=W,
            H=H,
            config=NMFConfig(**config_dict),
            iterations=meta["iterations"],
            history=[IterationStats(**s) for s in meta["history"]],
            breakdown=TimeBreakdown.from_saved(meta["breakdown"]),
            ledger_summary=meta.get("ledger_summary", {}),
            n_ranks=meta["n_ranks"],
            grid_shape=tuple(grid_shape) if grid_shape else None,
            converged=meta["converged"],
            variant=variant,
            backend=meta.get("backend"),
            solver=meta.get("solver", ""),
            plan=plan,
            **extra,
        )
