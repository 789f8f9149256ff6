"""Multiplicative Update (MU) in normal-equations form (paper Eq. 3).

Lee & Seung's update for the H-subproblem ``min_{H>=0} ||A - WH||`` is

    H ← H ∘ (Wᵀ A) / (Wᵀ W H),

which only needs the Gram matrix ``Wᵀ W`` and the product ``Wᵀ A`` — exactly
the normal-equations interface shared by all solvers here.  As the paper notes
(§4.1), given those two matrices the extra cost of the update is ``2 c k²``
flops and each entry updates independently, which is why MU slots into the
same parallel framework: the communication pattern is unchanged, only the
local "NLS" task differs.

One call performs one multiplicative sweep, the conventional ANLS-MU
iteration (MPI-FAUN updates each factor once per alternating iteration);
a caller that wants more sweeps calls :meth:`solve` again, warm-started.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nls.base import NLSSolver, NLSState

#: Floor added to denominators to avoid division by zero, the customary
#: epsilon of MU implementations.
EPS = 1e-16


class MultiplicativeUpdate(NLSSolver):
    """Multiplicative-update solver for the normal-equations NLS problem."""

    name = "mu"

    def solve(
        self,
        gram: np.ndarray,
        rhs: np.ndarray,
        x0: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        gram, rhs, x0 = self._validate(gram, rhs, x0, out)
        k, c = rhs.shape
        if x0 is None:
            # Without a previous iterate the multiplicative update has nothing
            # to rescale; start from a strictly positive constant matrix.
            x = np.full((k, c), 0.5)
        else:
            x = np.maximum(x0, EPS)

        denominator = gram @ x
        np.maximum(denominator, EPS, out=denominator)
        x = x * (np.maximum(rhs, 0.0) / denominator)
        self.last_state = NLSState(iterations=1)
        return self._into(x, out)
