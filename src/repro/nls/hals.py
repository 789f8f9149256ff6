"""Hierarchical Alternating Least Squares (HALS) updates (paper Eq. 4).

HALS applies block coordinate descent over the k rows of the factor being
updated (columns of W / rows of H), using the most recent values of the other
rows within the same sweep.  In normal-equations form, with ``G = CᵀC`` and
``R = CᵀB``, the update of row ``i`` of ``X`` is

    X[i] ← [ R[i] − Σ_{l≠i} G[i, l] X[l] ]₊ / G[i, i]
          = [ X[i] + (R[i] − G[i] X) / G[i, i] ]₊,

where the second form reuses the running product ``G X`` so a full sweep costs
``2 c k²`` flops — the figure quoted in §4.1.

A row with a vanishing diagonal ``G[i, i]`` (a column of C that is entirely
zero, so ``G[i]`` is zero too) enters the objective only as ``−R[i] X[i]``.
Where ``R[i]`` is negative (an L1 penalty subtracts ``λ_1/2`` from it) the
minimizer is 0, and those entries are zeroed.  Where it is zero (plain NMF)
the objective is flat, and the entries keep their values: zeroing them (the
conventional safeguard) would kill the component for good, since a zero row
of H zeroes the diagonal of the next ``H Hᵀ``, which zeroes W's column, which
zeroes the next ``WᵀW`` diagonal.  Kept, the row lets the next half-iteration
revive the component.
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
    """HALS block-coordinate-descent solver for the normal-equations NLS problem.

    One call is one sweep over the k rows; more sweeps are more warm-started
    calls.
    """

    name = "hals"

    def solve(
        self,
        gram: np.ndarray,
        rhs: np.ndarray,
        x0: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        gram, rhs, x0 = self._validate(gram, rhs, x0, out)
        k, c = rhs.shape
        # The sweep updates ``x`` in place, so with ``out is x0`` the caller's
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
            for i in range(k):
                if diag[i] <= EPS:
                    # Only ``-R[i] X[i]`` is left: 0 minimizes it where
                    # R[i] < 0, anything where R[i] = 0.
                    xb[i, rb[i, :] < 0] = 0.0
                    continue
                # X[i] + (R[i] - G[i, :] @ X) / G[i, i], clipped — built up
                # in the product's own buffer and clipped into place.
                row = gram[i, :] @ xb
                np.subtract(rb[i, :], row, out=row)
                row /= diag[i]
                row += xb[i, :]
                np.maximum(row, 0.0, out=xb[i, :])
        self.last_state = NLSState(iterations=1)
        return x
