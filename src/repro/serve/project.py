"""The projection engine: hold ``W`` fixed, solve ``H`` for fresh columns.

Serving traffic is *projection*: given the trained basis ``W`` (m × k) and a
batch of new data columns ``X`` (m × c — new users, documents, video
frames), find

    ``H = argmin_{H ≥ 0} ‖X − W H‖_F``

one small NLS problem per column, solved through the same kernels registry
(:mod:`repro.nls.kernels`) the training loops use — ``batched`` (the default)
coalesces the whole micro-batch into one stacked solve, ``scalar`` is the
per-column reference.

Byte-identity contract
----------------------
The micro-batcher's whole point is that co-batching must be *invisible* to a
client: a request's answer must not depend on which strangers shared its
batch.  Two implementation choices make the response bytes batch-invariant:

1. the right-hand side ``WᵀX`` is computed **per request block**, one gemm
   over exactly the columns that request carried
   (:func:`project_blocks`) — never one gemm over the coalesced batch, whose
   BLAS accumulation order (and therefore low bits) would depend on the
   co-batched strangers;
2. the BPP kernels solve each column's pivot sequence independently and the
   shared triangular-solve primitive is element-wise (no reductions across
   or along columns), so a column solved inside a coalesced batch is
   bit-identical to the same column solved alone (pinned by
   ``tests/serve/``).

Hence the response for a request co-batched with arbitrary neighbours equals,
bit for bit, the response for the same request served alone — and a
single-column request equals ``project(W, x, kernel="scalar")`` of that
column, whichever kernel serves it: the registry's kernels are byte-identical.

Request validation happens here too (:func:`validate_columns`): the server
validates every request at admission, so a malformed request is rejected
alone (HTTP 400) instead of crashing the batched call that serves its
co-batched neighbours.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.nls.base import NLSSolver
from repro.serve.errors import ProjectionRequestError

__all__ = [
    "MAX_BATCH_COLUMNS",
    "validate_columns",
    "project",
    "project_blocks",
    "projection_residuals",
    "ModelRefresher",
]

#: default column budget of one batched NLS call (service and CLI alike).
MAX_BATCH_COLUMNS = 256

#: A served model's refresh: the sliding window holds the last
#: ``REFRESH_WINDOW`` ingested columns, and each refresh runs
#: ``REFRESH_ITERS`` warm-started ANLS sweeps over it.
REFRESH_WINDOW = 64
REFRESH_ITERS = 1


def validate_columns(
    X, n_features: int, *, what: str = "request"
) -> np.ndarray:
    """Validate one request's payload into an ``m × c`` float64 column block.

    Accepts a single column (1-D of length ``n_features``) or a block of
    columns (2-D, ``n_features × c``).  Anything else — wrong length, wrong
    dimensionality, a dtype that is not real-numeric (strings, booleans and
    ``None`` included), NaN/Inf entries, or an empty batch — raises
    :class:`ProjectionRequestError` with a message precise enough to be
    returned verbatim as an HTTP 400 body.

    The result is always C-contiguous: BLAS picks a different code path (and
    produces different low bits) for strided views, so normalising the layout
    here keeps response bytes independent of the caller's memory layout.
    """
    try:
        X = np.asarray(X)
    except ValueError as exc:  # ragged nesting
        raise ProjectionRequestError(
            f"{what}: columns must be real-numeric, got data not convertible "
            f"to float64 ({exc})"
        ) from None
    if X.dtype.kind not in "iuf":  # strings would parse, None and booleans convert
        raise ProjectionRequestError(
            f"{what}: columns must be real-numeric, got {X.dtype} data"
        )
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ProjectionRequestError(
            f"{what}: expected one column (1-D) or a column block (2-D), "
            f"got a {X.ndim}-D array of shape {X.shape}"
        )
    if X.shape[1] == 0:
        raise ProjectionRequestError(f"{what}: the column block is empty")
    if X.shape[0] != n_features:
        raise ProjectionRequestError(
            f"{what}: columns have {X.shape[0]} rows but the model expects "
            f"{n_features} features per column"
        )
    if not np.isfinite(X).all():
        bad = int(np.flatnonzero(~np.isfinite(X).all(axis=0))[0])
        raise ProjectionRequestError(
            f"{what}: column {bad} contains NaN or Inf entries"
        )
    return X


def project(
    W: np.ndarray,
    X: np.ndarray,
    *,
    kernel: Optional[str] = None,
    solver: Optional[NLSSolver] = None,
    gram: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Project one request's columns ``X`` onto basis ``W``: the ``k × c`` ``H``.

    ``kernel`` selects the BPP inner engine from the kernels registry
    (``'scalar'``/``'batched'``/``'auto'``); alternatively pass a
    pre-built ``solver`` — the server passes the model entry's
    persistent-cache solver so repeated batches reuse Cholesky factors.
    ``gram`` is ``WᵀW`` when the caller has it cached (the model store always
    does); ``None`` computes it here.

    ``X`` must be exactly one request's block: the right-hand side is one
    gemm over it, which is what makes the bytes independent of co-batching
    (the micro-batcher concatenates *per-request* right-hand sides via
    :func:`project_blocks` instead of calling gemm on the coalesced batch).
    """
    if X.ndim == 1:
        X = X[:, None]
    return project_blocks(W, [X], kernel=kernel, solver=solver, gram=gram)


def project_blocks(
    W: np.ndarray,
    blocks: Sequence[np.ndarray],
    *,
    kernel: Optional[str] = None,
    solver: Optional[NLSSolver] = None,
    gram: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Project several request blocks in ONE batched NLS call.

    The coalesced-batch entry point the micro-batcher uses: the right-hand
    side is assembled with one ``Wᵀ·block`` gemm **per block** and the solve
    runs once over the concatenation.  Because each request's rhs bytes
    depend only on its own block, and the BPP kernels treat columns
    independently, the slice of the result belonging to a block is
    bit-identical to serving that block alone — co-batching is invisible.
    Returns the ``k × Σc_i`` coefficient block in input order.
    """
    if solver is None:
        from repro.nls.bpp import BlockPrincipalPivoting

        solver = BlockPrincipalPivoting(kernel=kernel)
    if gram is None:
        gram = W.T @ W
    k = W.shape[1]
    total = sum(block.shape[1] for block in blocks)
    rhs = np.empty((k, total))
    offset = 0
    Wt = W.T
    for block in blocks:
        c = block.shape[1]
        # One gemm per request block: rhs bytes depend only on this block.
        rhs[:, offset:offset + c] = Wt @ block
        offset += c
    return solver.solve(gram, rhs)


def projection_residuals(
    W: np.ndarray, X: np.ndarray, H: np.ndarray
) -> np.ndarray:
    """Per-column relative residual ``‖x − W h‖₂ / ‖x‖₂`` (0/0 → 0)."""
    diff = X - W @ H
    norms = np.linalg.norm(X, axis=0)
    res = np.linalg.norm(diff, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(norms > 0, res / np.where(norms > 0, norms, 1.0), 0.0)
    return out


class ModelRefresher:
    """Incremental model refresh: fold served columns back into the basis.

    Wraps the streaming variant (:class:`~repro.core.streaming.StreamingNMF`)
    seeded from the deployed basis: every ingested column updates the sliding
    window of the last :data:`REFRESH_WINDOW` columns, every
    ``refresh_every`` columns the basis drifts via one warm-started ANLS
    sweep (:data:`REFRESH_ITERS`) and the refreshed model
    is **published back into the store** as a new version
    (:meth:`ModelStore.swap` — the Gram cache invalidates by construction,
    because a swap builds a whole new entry).
    """

    def __init__(
        self,
        store,
        name: str,
        *,
        refresh_every: int = 16,
    ):
        from repro.core.streaming import StreamingNMF

        self.store = store
        self.name = name
        entry = store.get(name)
        self._stream = StreamingNMF(
            n_pixels=entry.m,
            k=entry.k,
            window=REFRESH_WINDOW,
            refresh_every=refresh_every,
            refresh_iters=REFRESH_ITERS,
            solver=entry.result.solver or "bpp",
        )
        # Seed the stream from the deployed basis instead of a random one.
        self._stream.W = np.array(entry.W)
        self.refresh_every = int(refresh_every)
        self.published_versions: list = []

    @property
    def columns_seen(self) -> int:
        return self._stream.frames_seen

    def ingest(self, column: np.ndarray) -> np.ndarray:
        """Fold one validated column into the model; returns its residual.

        Publishing happens on the streaming variant's refresh cadence: after
        every ``refresh_every``-th column the drifted basis replaces the
        deployed model as a new store version.
        """
        column = validate_columns(column, self._stream.n_pixels, what="ingest")
        if column.shape[1] != 1:
            raise ProjectionRequestError(
                f"ingest: exactly one column per ingest call, got {column.shape[1]}"
            )
        residual = self._stream.push_frame(column[:, 0])
        if self._stream.frames_seen % self.refresh_every == 0:
            self._publish()
        return residual

    def _publish(self) -> None:
        """Swap the refreshed factors into the store as a new version.

        A refresh can leave a basis column at zero.  When no column in the
        window uses component ``i`` (row ``i`` of the window's ``H`` is
        zero), ``H Hᵀ[i, i] = 0`` and the W-update does not depend on column
        ``i`` at all; BPP's ridge then returns zero there, and the store
        refuses a basis with a zero column (its ``WᵀW`` is singular).  So
        where the refreshed column is dead the deployed one is kept.  With
        row ``i`` of ``H`` zero, ``‖A − W H‖`` is the same for any column
        ``i``, so the deployed column minimizes the window's objective as
        well as zero does, and it still carries what earlier traffic taught
        the model.  Row ``i`` of the published ``H`` is zeroed, so the
        published ``W H`` is the refresh's product.  The stream goes on from
        the published basis, so the component returns once ingested columns
        use it again.  The alternative, skipping the publish, would never
        end: the stream's zero column stays zero under BPP, so every later
        refresh would be skipped too.
        """
        from repro.core.config import NMFConfig
        from repro.core.result import NMFResult

        old = self.store.get(self.name)
        W = np.array(self._stream.W)
        H = self._stream.current_coefficients()
        dead = ~W.any(axis=0)
        if dead.any():
            W[:, dead] = old.W[:, dead]
            H[dead, :] = 0.0
            self._stream.W = W.copy()
        refreshed = NMFResult(
            W=W,
            H=H,
            config=NMFConfig(
                k=self._stream.k,
                solver=old.result.config.solver,
                seed=old.result.config.seed,
            ),
            iterations=old.result.iterations,
            variant="streaming",
            solver=old.result.solver,
        )
        entry = self.store.swap(self.name, refreshed)
        self.published_versions.append(entry.version)
