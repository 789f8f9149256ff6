"""Hierarchical Alternating Least Squares (HALS) updates (paper Eq. 4).

HALS applies block coordinate descent over the k rows of the factor being
updated (columns of W / rows of H), using the most recent values of the other
rows within the same sweep.  In normal-equations form, with ``G = CᵀC`` and
``R = CᵀB``, the update of row ``i`` of ``X`` is

    X[i] ← [ R[i] − Σ_{l≠i} G[i, l] X[l] ]₊ / G[i, i]
          = [ X[i] + (R[i] − G[i] X) / G[i, i] ]₊,

where the second form reuses the running product ``G X`` so a full sweep costs
``2 c k²`` flops — the figure quoted in §4.1.

Rows with a vanishing diagonal ``G[i, i]`` (a column of C that is entirely
zero) are reset to zero, the conventional safeguard.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nls.base import NLSSolver, NLSState, register_solver

EPS = 1e-16

#: Columns swept per block: 4096 × k doubles of ``x`` plus as many of ``rhs``
#: stay in a 2 MB L2 for k up to 32 (28.8 → 17.4 ms at 32 × 60 000).
_BLOCK_COLUMNS = 4096


@register_solver
class HALSUpdate(NLSSolver):
    """HALS block-coordinate-descent solver for the normal-equations NLS problem."""

    name = "hals"

    def __init__(self, inner_iters: int = 1):
        super().__init__()
        if inner_iters < 1:
            raise ValueError(f"inner_iters must be >= 1, got {inner_iters}")
        self.inner_iters = int(inner_iters)

    def solve(
        self,
        gram: np.ndarray,
        rhs: np.ndarray,
        x0: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        gram, rhs, x0 = self._validate(gram, rhs, x0, out)
        k, c = rhs.shape
        # The sweeps update ``x`` in place, so with ``out is x0`` the caller's
        # iterate is the only k × c array the solve touches.
        x = np.empty((k, c)) if out is None else out
        if x0 is None:
            x.fill(0.5)
        else:
            np.maximum(x0, 0.0, out=x)

        diag = np.diag(gram).copy()
        # Columns are independent, so the k row updates sweep one
        # cache-resident column block at a time: each ``gram[i] @ x`` re-reads
        # every row of ``x``, O(k²c) bytes from memory unblocked, O(kc) blocked.
        for lo in range(0, c, _BLOCK_COLUMNS):
            xb, rb = x[:, lo:lo + _BLOCK_COLUMNS], rhs[:, lo:lo + _BLOCK_COLUMNS]
            for _ in range(self.inner_iters):
                for i in range(k):
                    if diag[i] <= EPS:
                        xb[i, :] = 0.0
                        continue
                    # X[i] + (R[i] - G[i, :] @ X) / G[i, i], clipped — built up
                    # in the product's own buffer and clipped into place.
                    row = gram[i, :] @ xb
                    np.subtract(rb[i, :], row, out=row)
                    row /= diag[i]
                    row += xb[i, :]
                    np.maximum(row, 0.0, out=xb[i, :])
        self.last_state = NLSState(iterations=self.inner_iters)
        return x
