"""The variant registry: every NMF flavor behind one front door.

Seven variants ship registered (one module each):

* ``sequential`` — Algorithm 1, the ANLS reference: Algorithm 3 on a 1 × 1
  grid, in process (:mod:`.sequential`);
* ``naive``, ``hpc1d``, ``hpc2d`` — the SPMD Algorithms 2/3 (:mod:`.parallel`);
* ``symmetric`` — SymNMF graph clustering (:mod:`.symmetric`);
* ``regularized`` — ridge/L1 factor penalties: Algorithm 3 with a
  normal-equations hook, at any ``n_ranks`` (:mod:`.regularized`);
* ``streaming`` — sliding-window incremental NMF (:mod:`.streaming`).

:func:`repro.fit` resolves its ``variant=`` argument here; the CLI derives
its ``--variant`` choices and the ``repro variants`` listing from
:func:`available_variants`.  Register your own with::

    from repro.core.variants import Variant, register_variant

    @register_variant
    class MyVariant(Variant):
        name = "mine"
        def run(self, A, config, observers=()):
            ...

after which ``repro.fit(A, k, variant="mine")`` dispatches to it — no other
code changes anywhere.
"""

from repro.core.variants.base import (
    Variant,
    available_variants,
    get_variant,
    register_variant,
    variant_name,
)

__all__ = [
    "Variant",
    "available_variants",
    "get_variant",
    "register_variant",
    "variant_name",
]
