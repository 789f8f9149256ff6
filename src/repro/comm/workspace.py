"""Reusable per-rank output buffers for the collectives.

Every iteration of Algorithms 2 and 3 runs the same collectives on arrays of
the same shapes (the Gram all-reduces are ``k × k``, the factor all-gathers
are ``m/pr × k`` / ``k × n/pc``, the reduce-scatters produce each rank's
fixed sub-block).  Allocating fresh result arrays for each of them, every
iteration, is pure garbage-collector churn.

:class:`CollectiveWorkspace` holds *named* buffers that persist across
iterations: the algorithm asks for ``ws.get("gram_h", (k, k))`` once per
iteration and the collective writes its result in place (mirroring MPI's
caller-provided receive buffers).  Buffers are named rather than keyed by
shape so two same-shaped collectives that are live simultaneously (e.g. the
``W`` Gram and the ``H`` Gram inside one iteration) can never alias.

The workspace is per-communicator and therefore per-rank — results are
rank-private in the SPMD model, so no synchronization is needed.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

import numpy as np

ShapeLike = Union[int, Tuple[int, ...]]


class CollectiveWorkspace:
    """Named, lazily allocated, shape-checked reusable numpy buffers."""

    def __init__(self):
        self._buffers: Dict[str, np.ndarray] = {}

    def get(self, name: str, shape: ShapeLike, dtype=np.float64) -> np.ndarray:
        """Return the buffer registered under ``name``.

        The buffer is (re)allocated on first use and whenever the requested
        ``shape``/``dtype`` changed (e.g. a config sweep reusing one
        communicator); otherwise the same array object is returned every
        call, which is what makes the collectives allocation-free in steady
        state.  Contents are *not* cleared between calls — collectives
        overwrite every element.
        """
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[name] = buf
        return buf

    def __len__(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the workspace."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def clear(self) -> None:
        """Drop all buffers (they are reallocated on next use)."""
        self._buffers.clear()

    def __repr__(self) -> str:
        return f"CollectiveWorkspace(buffers={len(self)}, nbytes={self.nbytes})"
