"""The :class:`Variant` descriptor and the variant registry.

A *variant* is one NMF flavor behind the :func:`repro.fit` front door:
Algorithm 1 (``sequential``), Algorithm 2 (``naive``), Algorithm 3 on a 1D or
2D grid (``hpc1d`` / ``hpc2d``), and the paper-motivated extensions
(``symmetric``, ``regularized``, ``streaming``).  The registry mirrors the
solver registry (:mod:`repro.nls.base`) and the backend registry
(:mod:`repro.comm.backends`): adding a variant is one registered module —
no dispatch table anywhere else needs editing, and the CLI's ``--variant``
choices and ``repro variants`` listing update themselves.

Each variant declares **capability flags** the front door enforces or
surfaces:

``parallelizable``
    Runs as an SPMD program on ``config.n_ranks`` ranks of an execution
    backend; non-parallelizable variants reject ``n_ranks > 1``.
``sparse_ok``
    Accepts ``scipy.sparse`` input.
``symmetric_input``
    Interprets the input as a square similarity/adjacency matrix (and adapts
    rectangular input rather than factorizing it directly).
``supports_regularization``
    Accepts factor-regularization options (ridge / L1).

and implements one uniform entry point::

    run(A, config, observers=(), **variant_options) -> NMFResult

Variants that the analytic model of §4.3/§5 covers additionally implement
the **cost hooks** the planning layer (:mod:`repro.plan`) consumes —
``predicted_breakdown(problem, p, grid, machine)``,
``predicted_words(problem, p, grid)`` and ``candidate_grids(problem, p)``
— so analysis dispatches through the same registry as execution (no
duplicate variant taxonomy in :mod:`repro.perf.model`).
"""

from __future__ import annotations

import abc
import inspect
from typing import Dict, List, Optional, Sequence

from repro.core.config import NMFConfig
from repro.core.observers import IterationObserver
from repro.core.result import NMFResult


class Variant(abc.ABC):
    """Descriptor + entry point of one registered NMF flavor."""

    #: registry name; subclasses override
    name: str = "abstract"
    #: one-line description shown by ``repro variants``
    summary: str = ""
    #: the NMFResult (sub)class this variant produces; NMFResult.load() uses
    #: it to round-trip saved results without per-variant special cases.
    result_class = NMFResult
    # capability flags
    parallelizable: bool = False
    sparse_ok: bool = True
    symmetric_input: bool = False
    supports_regularization: bool = False

    @abc.abstractmethod
    def run(
        self,
        A,
        config: NMFConfig,
        observers: Optional[Sequence[IterationObserver]] = (),
        **options,
    ) -> NMFResult:
        """Execute this variant on ``A`` under ``config``.

        ``observers`` follow the protocol of :mod:`repro.core.observers`;
        ``options`` are this variant's extra knobs (see
        :meth:`extra_options`).  Returns a provenance-stamped
        :class:`~repro.core.result.NMFResult`.
        """

    @property
    def label(self) -> str:
        """Display label used by reports and plan tables (default: the name).

        Subclasses override with a plain class attribute (e.g.
        ``label = "HPC-NMF-2D"`` to match the paper's figure legends).
        """
        return self.name

    # -- analytic cost hooks (the planning layer's interface) ---------------
    def predicted_breakdown(self, problem, p: int, grid=None, machine=None):
        """Modeled per-iteration :class:`~repro.comm.profiler.TimeBreakdown`.

        ``problem`` is a :class:`~repro.plan.problem.ProblemSpec`; ``grid``
        is a ``(pr, pc)`` tuple for grid-using variants (``None`` applies
        the variant's own default); ``machine`` a
        :class:`~repro.perf.machine.MachineSpec` (``None`` = Edison).
        Returns ``None`` when the variant has no analytic model — the
        planner then skips it.
        """
        return None

    def predicted_words(self, problem, p: int, grid=None) -> Optional[float]:
        """Modeled per-iteration communication volume in words (or ``None``)."""
        return None

    def candidate_grids(self, problem, p: int):
        """Grid candidates the planner should score for this variant.

        Grid-free variants return ``(None,)`` (one candidate, no grid);
        ``hpc2d`` returns every ``pr × pc`` factorization of ``p``.
        """
        return (None,)

    def capabilities(self) -> Dict[str, bool]:
        """The four capability flags as a dict (used by the CLI listing)."""
        return {
            "parallelizable": self.parallelizable,
            "sparse_ok": self.sparse_ok,
            "symmetric_input": self.symmetric_input,
            "supports_regularization": self.supports_regularization,
        }

    def extra_options(self) -> tuple:
        """Names of the variant-specific keyword options ``run`` accepts.

        Derived from the ``run`` signature, so the front door can tell a
        mistyped config field from a legitimate variant knob without any
        per-variant table.
        """
        parameters = inspect.signature(self.run).parameters
        skip = {"A", "config", "observers"}
        return tuple(
            name
            for name, param in parameters.items()
            if name not in skip and param.default is not inspect.Parameter.empty
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


_REGISTRY: Dict[str, Variant] = {}


def variant_name(variant) -> str:
    """Normalise a variant selector to its lower-case registry name."""
    return str(variant).lower()


def register_variant(cls):
    """Class decorator adding a variant (as a singleton) to the registry."""
    if not (isinstance(cls, type) and issubclass(cls, Variant)):
        raise TypeError(f"register_variant expects a Variant subclass, got {cls!r}")
    _REGISTRY[cls.name] = cls()
    return cls


def available_variants() -> List[str]:
    """Names accepted by :func:`get_variant` (and by ``repro.fit(variant=...)``).

    >>> available_variants()
    ['hpc1d', 'hpc2d', 'naive', 'regularized', 'sequential', 'streaming', 'symmetric']
    """
    _ensure_builtin_variants()
    return sorted(_REGISTRY)


def get_variant(name: str) -> Variant:
    """Look up a registered variant by name.

    >>> get_variant("hpc2d").parallelizable
    True
    >>> get_variant("symmetric").symmetric_input
    True
    """
    _ensure_builtin_variants()
    try:
        return _REGISTRY[variant_name(name)]
    except KeyError:
        raise KeyError(
            f"unknown variant {name!r}; available variants: {sorted(_REGISTRY)}"
        ) from None


def _ensure_builtin_variants() -> None:
    """Import the built-in variant modules so they self-register."""
    # Deferred so `import repro.core.variants.base` alone stays cycle-free.
    from repro.core.variants import (  # noqa: F401
        parallel,
        regularized,
        sequential,
        streaming,
        symmetric,
    )
