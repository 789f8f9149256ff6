"""The model store: named, versioned, validated ``NMFResult`` artifacts.

The store is the serving layer's source of truth for *which factors are
deployed*.  Each registered model is held as an immutable
:class:`ModelEntry` that pre-computes everything projection needs per model
version:

* ``W`` — the frozen basis (read-only, C-contiguous float64);
* ``gram`` — the cached ``WᵀW`` (the ``m·k²`` matmul no request should pay),
  checked at load time by a Cholesky factorization of its ridge-stabilised
  form: a basis whose columns are numerically dependent is refused with
  :class:`~repro.serve.errors.ModelLoadError` (the factor is not kept);
* per-kernel BPP solvers with a *persistent* passive-pattern cache
  (:class:`~repro.nls.bpp.BlockPrincipalPivoting` with
  ``persistent_cache=True``): micro-batches that revisit a passive-set
  pattern reuse the Cholesky factor computed for an earlier batch, which is
  bit-safe because the Gram never changes within a model version.

**Gram-cache invalidation rule** (also documented in
``docs/ARCHITECTURE.md``): caches belong to the entry, never to the store.
:meth:`ModelStore.swap` / :meth:`ModelStore.reload` build a complete new
entry (fresh Gram, fresh check, empty pattern caches) and then atomically
replace the name binding; they never mutate an existing entry.  A server
worker process takes each new version from its primary through
:meth:`ModelStore.install` (same arrays, empty caches, same rebind).  In-flight
batches keep serving from the entry object they resolved at dequeue time, so
a hot swap drops no requests — the next batch resolves the new version.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.result import NMFResult
from repro.nls.bpp import BlockPrincipalPivoting
from repro.nls.kernels import resolve_kernel
from repro.serve.errors import ModelLoadError, ModelNotFoundError

__all__ = ["ModelEntry", "ModelStore"]

#: ridge added to the Gram diagonal before the validity Cholesky, scaled by
#: the largest diagonal entry — the same minimal stabilisation BPP applies to
#: an exactly singular Gram.
_RIDGE = 1e-12


@dataclass(frozen=True)
class ModelEntry:
    """One immutable deployed model version.

    Never mutate the arrays (they are marked read-only); build a new entry
    through the store to change anything.  ``solver_for`` hands out the
    per-kernel BPP solver whose persistent pattern cache is bound to this
    entry's Gram — sharing it across micro-batches is what makes repeated
    serving cheap, and discarding the whole entry is what keeps a model swap
    correct.  ``result`` is the fitted model the entry was built from; an
    entry pushed to a server worker (:meth:`ModelStore.install`) carries
    ``None`` there, since only the publishing process refreshes from it.
    """

    name: str
    version: int
    result: Optional[NMFResult]
    W: np.ndarray
    gram: np.ndarray
    metadata: dict
    source: Optional[Path] = None
    _solvers: Dict[str, BlockPrincipalPivoting] = field(
        default_factory=dict, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def m(self) -> int:
        """Rows of ``W`` — the feature length every request column must have."""
        return self.W.shape[0]

    @property
    def k(self) -> int:
        """Rank of the model (columns of ``W``)."""
        return self.W.shape[1]

    def solver_for(self, kernel: Optional[str]) -> BlockPrincipalPivoting:
        """The entry's persistent-cache BPP solver for ``kernel`` (memoised)."""
        key = resolve_kernel(kernel)
        with self._lock:
            solver = self._solvers.get(key)
            if solver is None:
                solver = BlockPrincipalPivoting(kernel=key, persistent_cache=True)
                self._solvers[key] = solver
            return solver

    def __reduce__(self):
        # Pickled (pushed to another worker process) with what projection
        # reads: no lock and no solver caches (the receiver starts with empty
        # ones, as every new entry does), and no ``result``, whose H only the
        # publishing process's refresher reads.
        return (ModelEntry, (self.name, self.version, None, self.W, self.gram,
                             self.metadata, self.source))

    def describe(self) -> dict:
        """JSON-able summary for listings and the ``/stats`` endpoint."""
        return {
            "name": self.name,
            "version": self.version,
            "source": str(self.source) if self.source else None,
            **self.metadata,
        }


class ModelStore:
    """Loads, validates, lists and hot-swaps named model entries.

    Parameters
    ----------
    root:
        Optional directory; :meth:`load_all` registers every ``*.npz`` in it,
        and bare names passed to :meth:`load` resolve against it.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else None
        self._models: Dict[str, ModelEntry] = {}
        self._lock = threading.Lock()

    # -- registration --------------------------------------------------------
    def load(self, path: Union[str, Path], name: Optional[str] = None) -> ModelEntry:
        """Register the model saved at ``path`` (default name: the file stem).

        Raises :class:`~repro.util.errors.ModelLoadError` when the artifact
        is missing, corrupt, or fails serving validation.
        """
        path = Path(path)
        if not path.exists() and self.root is not None and not path.is_absolute():
            path = self.root / path
        result = NMFResult.load(path)  # raises ModelLoadError with the path
        return self._register(name or path.stem, result, source=path)

    def load_all(self) -> List[ModelEntry]:
        """Register every ``*.npz`` under ``root``; returns the new entries."""
        if self.root is None:
            raise ModelLoadError("this store has no root directory to scan")
        paths = sorted(self.root.glob("*.npz"))
        if not paths:
            raise ModelLoadError(
                f"no *.npz model artifacts found under {self.root}", path=self.root
            )
        return [self.load(path) for path in paths]

    # -- lookup --------------------------------------------------------------
    def get(self, name: str) -> ModelEntry:
        """The current entry for ``name`` (raises :class:`ModelNotFoundError`)."""
        try:
            return self._models[name]
        except KeyError:
            raise ModelNotFoundError(name, list(self._models)) from None

    def names(self) -> List[str]:
        return sorted(self._models)

    def describe(self) -> List[dict]:
        """One :meth:`ModelEntry.describe` dict per registered model."""
        return [self._models[name].describe() for name in self.names()]

    def __len__(self) -> int:
        return len(self._models)

    # -- hot swap ------------------------------------------------------------
    def reload(self, name: str) -> ModelEntry:
        """Re-read ``name`` from its backing file; atomically swap versions.

        The new entry is fully built (validated, Gram recomputed and checked,
        caches empty) *before* the name binding changes, so a corrupt file on
        disk raises :class:`ModelLoadError` and leaves the previous version
        serving.  In-flight batches finish on whichever entry they resolved.
        """
        entry = self.get(name)
        if entry.source is None:
            raise ModelLoadError(
                f"model {name!r} was registered in memory and has no backing "
                "file to reload from"
            )
        result = NMFResult.load(entry.source)
        return self._register(name, result, source=entry.source)

    def swap(self, name: str, result: NMFResult) -> ModelEntry:
        """Replace (or create) ``name`` with ``result``; bumps the version."""
        entry = self._models.get(name)
        return self._register(name, result, source=entry.source if entry else None)

    def install(self, entry: ModelEntry) -> ModelEntry:
        """Bind a version another process's store built; returns the serving entry.

        This is how a server worker takes a version its primary published:
        the arrays arrive with the publisher's bytes (the Gram is not
        recomputed) and are made read-only here.  A version no newer than
        the one serving is ignored, so a model never rolls back.
        """
        for array in (entry.W, entry.gram):
            array.setflags(write=False)
        with self._lock:
            current = self._models.get(entry.name)
            if current is None or current.version < entry.version:
                self._models[entry.name] = entry
            return self._models[entry.name]

    # -- internals -----------------------------------------------------------
    def _register(
        self, name: str, result: NMFResult, source: Optional[Path]
    ) -> ModelEntry:
        entry = self._build_entry(name, result, source)
        with self._lock:
            previous = self._models.get(name)
            if previous is not None:
                entry = ModelEntry(
                    name=entry.name,
                    version=previous.version + 1,
                    result=entry.result,
                    W=entry.W,
                    gram=entry.gram,
                    metadata=entry.metadata,
                    source=entry.source,
                )
            self._models[name] = entry  # atomic rebind: readers see old or new
        return entry

    @staticmethod
    def _build_entry(
        name: str, result: NMFResult, source: Optional[Path]
    ) -> ModelEntry:
        described = f"model {name!r}" + (f" ({source})" if source else "")
        W = np.ascontiguousarray(np.asarray(result.W, dtype=np.float64))
        if W.ndim != 2 or W.shape[0] < 1 or W.shape[1] < 1:
            raise ModelLoadError(
                f"{described}: W must be a 2-D m×k basis, got shape {W.shape}",
                path=source,
            )
        if not np.isfinite(W).all():
            raise ModelLoadError(
                f"{described}: W contains non-finite entries", path=source
            )
        if (W < 0).any():
            raise ModelLoadError(
                f"{described}: W has negative entries; not a valid NMF basis",
                path=source,
            )
        if not W.any(axis=0).all():
            dead = int(np.flatnonzero(~W.any(axis=0))[0])
            raise ModelLoadError(
                f"{described}: basis column {dead} is identically zero; the "
                "Gram matrix would be singular",
                path=source,
            )
        W.setflags(write=False)
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            gram = W.T @ W
        if not np.isfinite(gram).all():
            raise ModelLoadError(
                f"{described}: WᵀW overflows; the basis entries are too large "
                "to project with",
                path=source,
            )
        gram.setflags(write=False)
        k = W.shape[1]
        try:
            np.linalg.cholesky(
                gram + np.eye(k) * (_RIDGE * float(gram.diagonal().max()))
            )
        except np.linalg.LinAlgError as exc:
            raise ModelLoadError(
                f"{described}: WᵀW is not positive definite even after ridge "
                "stabilisation; the basis columns are numerically dependent",
                path=source,
            ) from exc
        return ModelEntry(
            name=name,
            version=1,
            result=result,
            W=W,
            gram=gram,
            metadata=result.model_metadata(),
            source=source,
        )
