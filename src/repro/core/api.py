"""User-facing entry points: the one front door.

:func:`fit` runs any variant — ``sequential`` (Algorithm 1), ``naive``
(Algorithm 2), ``hpc1d``/``hpc2d`` (Algorithm 3), ``symmetric``,
``regularized``, ``streaming`` — through one code path: look up its row in
the variant table (:mod:`repro.core.variants`), build the
:class:`~repro.core.config.NMFConfig`, enforce the row's ``parallelizable``
and ``sparse_ok`` flags and its ``options``, and call its
``run(A, config, observers, **options)``.  :class:`NMF` is the
estimator-style spelling of the same thing.

Examples
--------
>>> import numpy as np
>>> rng = np.random.default_rng(0)
>>> A = rng.random((60, 40))
>>> res = fit(A, 5, max_iters=10, seed=1)          # sequential by default
>>> res.variant, res.W.shape, res.H.shape
('sequential', (60, 5), (5, 40))
>>> par = fit(A, 5, n_ranks=4, max_iters=5, seed=1)  # n_ranks > 1 -> hpc2d
>>> par.variant, par.n_ranks, par.grid_shape
('hpc2d', 4, (2, 2))
>>> np.allclose(res.W, fit(A, 5, variant="sequential", max_iters=10, seed=1).W)
True
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import NMFConfig
from repro.core.observers import IterationObserver
from repro.core.result import NMFResult
from repro.core.variants import VARIANTS, get_variant
from repro.util.errors import ShapeError
from repro.util.validation import is_sparse

_CONFIG_FIELDS = frozenset(f.name for f in dataclass_fields(NMFConfig))


def _build_config(k: Optional[int], config: Optional[NMFConfig], **kwargs) -> NMFConfig:
    """Combine the positional rank, an optional base config and field overrides.

    A positional ``k`` that disagrees with ``config.k`` is a contradiction we
    refuse to guess about (the old behaviour silently preferred ``k``).
    """
    if config is not None:
        if kwargs:
            config = config.with_options(**kwargs)
        if k is not None and config.k != k:
            raise ShapeError(
                f"rank mismatch: called with k={k} but config.k={config.k}; "
                "pass matching values or omit one of them"
            )
        return config
    if k is None:
        raise ShapeError("a target rank is required: pass k or a config with k set")
    return NMFConfig(k=k, **kwargs)


def fit(
    A,
    k: Optional[int] = None,
    *,
    variant: Optional[str] = None,
    n_ranks: Optional[int] = None,
    grid: Union[str, Tuple[int, int], None] = None,
    backend: Optional[str] = None,
    config: Optional[NMFConfig] = None,
    observers: Sequence[IterationObserver] = (),
    machine=None,
    **options,
) -> NMFResult:
    """Compute a rank-``k`` NMF of ``A`` with any variant.

    This is the front door to every NMF flavor in the package: the paper's
    Algorithm 1/2/3 family and the extension variants all run through this
    one code path, differing only in the ``variant`` name.

    Parameters
    ----------
    A:
        Nonnegative ``m × n`` matrix (dense ndarray or scipy sparse; sparse
        input requires a variant with the ``sparse_ok`` capability).
    k:
        Target rank.  May be omitted when ``config`` carries it; a ``k`` that
        contradicts ``config.k`` raises :class:`~repro.util.errors.ShapeError`.
    variant:
        Variant name (see :func:`repro.core.variants.available_variants`),
        or ``"auto"`` to let the planner (:mod:`repro.plan`) pick the
        cost-model argmin over every modeled variant (§5's selection rule).
        Default: ``"sequential"``, or ``"hpc2d"`` when ``n_ranks > 1``.
    n_ranks:
        Number of SPMD ranks for parallelizable variants (stored as
        ``config.n_ranks``).  Sequential-only variants reject ``n_ranks > 1``
        — no silent fallback.
    grid:
        Explicit ``(pr, pc)`` processor grid for the HPC variants, or
        ``"auto"`` to have the planner score **all** factorizations of ``p``
        and run the cheapest.
    backend:
        Execution backend registry name (``"thread"``, ``"lockstep"``,
        ``"process"``, ...); overrides ``config.backend``.  ``"process"``
        and ``"socket"`` fork one OS process per rank, so they escape the
        GIL and show real speedups; ``"process"`` moves collective payloads
        through shared memory, ``"socket"`` over TCP.  Unknown names raise
        immediately with the registry's suggestion list.  Ignored by
        sequential-only variants.
    config:
        Full :class:`NMFConfig`; keyword ``options`` override single fields.
    observers:
        :class:`~repro.core.observers.IterationObserver` objects notified
        after every outer iteration of the variant's loop; any observer can
        request an early stop.
    machine:
        :class:`~repro.perf.machine.MachineSpec` the planner prices
        candidates against when ``variant``/``grid`` is ``"auto"``.
        Default: the deterministic Edison constants; pass
        ``MachineSpec.calibrate()`` to plan for the actual host.
    **options:
        Remaining keywords are split by name: :class:`NMFConfig` fields
        (``max_iters``, ``tol``, ``solver``, ``seed``, ...) configure the
        run; anything else must be an extra option of the chosen variant
        (e.g. ``alpha`` for ``symmetric``, ``l1`` for ``regularized``,
        ``window`` for ``streaming``).

    When the planner ran, the chosen :class:`~repro.plan.planner.
    ExecutionPlan` (variant, grid, predicted per-iteration breakdown and
    words moved) is recorded on the result as ``result.plan``.

    Examples
    --------
    >>> import numpy as np
    >>> A = np.abs(np.random.default_rng(3).standard_normal((48, 36)))
    >>> res = fit(A, 4, variant="naive", n_ranks=3, max_iters=5)
    >>> res.variant, res.n_ranks, res.backend
    ('naive', 3, 'thread')
    >>> fit(A, 4, variant="regularized", l1=0.5, max_iters=5).variant
    'regularized'

    ``variant="auto"`` consults the cost model; on a tall-skinny matrix the
    §5 rule lands in the 1D regime (``pr = p, pc = 1``):

    >>> tall = np.abs(np.random.default_rng(1).standard_normal((320, 12)))
    >>> auto = fit(tall, 3, variant="auto", grid="auto", n_ranks=4, max_iters=2)
    >>> auto.variant, auto.plan.grid, auto.grid_shape
    ('hpc2d', (4, 1), (4, 1))
    """
    if isinstance(backend, str):
        # Fail fast, before any planning or data movement, with the backend
        # registry's suggestion list ("did you mean 'process'?").
        from repro.comm.backends import get_backend_class

        get_backend_class(backend)

    config_options = {key: val for key, val in options.items() if key in _CONFIG_FIELDS}
    extras = {key: val for key, val in options.items() if key not in _CONFIG_FIELDS}

    if variant is None:
        ranks = n_ranks
        if ranks is None:
            ranks = config.n_ranks if config is not None else 1
        variant = "hpc2d" if ranks > 1 else "sequential"

    auto_variant = isinstance(variant, str) and variant.lower() == "auto"
    auto_grid = isinstance(grid, str)
    if auto_grid and grid.lower() != "auto":
        raise TypeError(f"grid must be a (pr, pc) tuple or 'auto', got {grid!r}")

    plan = None
    if auto_variant or auto_grid:
        from repro.plan import ProblemSpec, make_plan

        eff_k = k if k is not None else (config.k if config is not None else None)
        if eff_k is None:
            raise ShapeError("a target rank is required: pass k or a config with k set")
        ranks = n_ranks if n_ranks is not None else (
            config.n_ranks if config is not None else 1
        )
        plan = make_plan(
            ProblemSpec.from_matrix(A, eff_k),
            ranks,
            machine=machine,
            variants=None if auto_variant else [variant],
            grid=None if auto_grid else grid,
            backend=backend or (config.backend if config is not None else None),
            solver=config_options.get(
                "solver", config.solver if config is not None else "bpp"
            ),
        )
        variant = plan.variant
        if auto_grid:
            grid = plan.grid  # None for grid-free variants (sequential, naive)

    row = get_variant(variant)

    unknown = sorted(set(extras) - set(row.options))
    if unknown:
        accepted = sorted(row.options)
        raise TypeError(
            f"variant {row.name!r} does not accept option(s) {unknown}; "
            f"beyond the NMFConfig fields it accepts {accepted or 'no extra options'}"
        )

    cfg = _build_config(k, config, **config_options)
    if n_ranks is not None:
        cfg = cfg.with_options(n_ranks=n_ranks)
    if grid is not None:
        cfg = cfg.with_options(grid=grid)
    if backend is not None:
        cfg = cfg.with_options(backend=backend)

    if cfg.n_ranks > 1 and not row.parallelizable:
        parallel = sorted(name for name, v in VARIANTS.items() if v.parallelizable)
        raise ShapeError(
            f"variant {row.name!r} is sequential-only and cannot run on "
            f"n_ranks={cfg.n_ranks}; parallelizable variants: {parallel}"
        )
    if is_sparse(A) and not row.sparse_ok:
        raise ShapeError(
            f"variant {row.name!r} does not accept scipy sparse input"
        )

    result = row.run(A, cfg, observers, **extras)
    if plan is not None:
        result.plan = plan
    return result


class NMF:
    """Estimator-style front door: configure once, fit many matrices.

    Mirrors the scikit-learn convention: ``fit`` stores the fitted factors
    on the instance (``W_``, ``H_``, full ``result_``) and returns ``self``;
    ``fit_transform`` returns ``W``; ``transform`` projects *new* data onto
    the fitted basis with one NLS solve.

    Examples
    --------
    >>> import numpy as np
    >>> A = np.abs(np.random.default_rng(0).standard_normal((30, 20)))
    >>> model = NMF(k=4, variant="sequential", max_iters=5, seed=0).fit(A)
    >>> model.W_.shape, model.components_.shape
    ((30, 4), (4, 20))
    >>> model.result_.variant
    'sequential'
    """

    def __init__(
        self,
        k: Optional[int] = None,
        *,
        variant: Optional[str] = None,
        n_ranks: Optional[int] = None,
        grid: Union[str, Tuple[int, int], None] = None,
        backend: Optional[str] = None,
        config: Optional[NMFConfig] = None,
        observers: Sequence[IterationObserver] = (),
        **options,
    ):
        self.k = k
        self.variant = variant
        self.n_ranks = n_ranks
        self.grid = grid
        self.backend = backend
        self.config = config
        self.observers = tuple(observers)
        self.options = dict(options)
        self.result_: Optional[NMFResult] = None

    def fit(self, A, observers: Sequence[IterationObserver] = ()) -> "NMF":
        """Factorize ``A``; stores ``result_``/``W_``/``H_`` and returns ``self``."""
        self.result_ = fit(
            A,
            self.k,
            variant=self.variant,
            n_ranks=self.n_ranks,
            grid=self.grid,
            backend=self.backend,
            config=self.config,
            observers=(*self.observers, *observers),
            **self.options,
        )
        return self

    def fit_transform(self, A) -> np.ndarray:
        """Factorize ``A`` and return the left factor ``W``."""
        return self.fit(A).W_

    def transform(self, A) -> np.ndarray:
        """Coefficients of (possibly new) columns under the fitted basis ``W_``.

        Solves ``min_{H >= 0} ||A - W_ H||`` with the configured NLS solver;
        ``A`` must have the same number of rows the model was fitted on.
        """
        result = self._fitted()
        W = result.W
        if A.shape[0] != W.shape[0]:
            raise ShapeError(
                f"transform expects {W.shape[0]} rows (the fitted basis), got {A.shape[0]}"
            )
        solver = result.config.make_solver()
        gram_w = W.T @ W
        rhs = W.T @ A
        rhs = np.asarray(rhs)  # sparse A yields a matrix; solvers want ndarray
        return solver.solve(gram_w, rhs)

    @property
    def W_(self) -> np.ndarray:
        return self._fitted().W

    @property
    def H_(self) -> np.ndarray:
        return self._fitted().H

    @property
    def components_(self) -> np.ndarray:
        """The right factor ``H`` under its scikit-learn name."""
        return self._fitted().H

    def _fitted(self) -> NMFResult:
        if self.result_ is None:
            raise ShapeError("this NMF instance is not fitted yet; call fit(A) first")
        return self.result_

    def __repr__(self) -> str:
        # An unset variant means "library default" (sequential/hpc2d by rank
        # count), which is distinct from variant="auto" (planner mode).
        variant = self.variant if self.variant is not None else "default"
        return f"NMF(k={self.k}, variant={variant!r})"
