"""The ``regularized`` variant: ridge / L1 penalties on both factors.

Algorithm 3 with the penalty applied to the line-8 and line-14 normal
equations (:meth:`repro.core.regularized.Regularization.normal_equations`),
at any ``p``: over :class:`~repro.comm.communicator.SelfComm` in this
process at ``n_ranks = 1``, on ``n_ranks`` ranks of the configured backend
above.  It
runs ``hpc2d``'s collectives (an L1 weight adds one word per iteration to the
error path's all-reduce); it has no cost model, so ``variant="auto"`` never
plans it.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import NMFConfig
from repro.core.regularized import Regularization, regularized_nmf
from repro.core.result import NMFResult
from repro.core.variants.base import Variant, register_variant


@register_variant
class RegularizedVariant(Variant):
    """ANLS with Frobenius (ridge) and/or L1 factor penalties.

    Extra options: pass a full ``regularization=Regularization(...)`` or the
    individual weights ``frobenius=`` / ``l1=``::

        repro.fit(A, k, variant="regularized", l1=0.5)
        repro.fit(A, k, variant="regularized", l1=0.5, n_ranks=4)
    """

    name = "regularized"
    summary = "Ridge/L1-regularized ANLS (Algorithm 3's communication at any p)"
    parallelizable = True
    sparse_ok = True
    supports_regularization = True

    def run(
        self,
        A,
        config: NMFConfig,
        observers=(),
        regularization: Optional[Regularization] = None,
        frobenius: float = 0.0,
        l1: float = 0.0,
    ) -> NMFResult:
        if regularization is not None and (frobenius or l1):
            raise TypeError(
                "pass either regularization=Regularization(...) or the "
                "frobenius=/l1= weights, not both"
            )
        if regularization is None:
            regularization = Regularization(frobenius=frobenius, l1=l1)
        return regularized_nmf(A, config, regularization, observers=observers)
