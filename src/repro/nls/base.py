"""Common interface of the local NLS solvers.

Every solver consumes the *normal equations* form of the NLS problem

    min_{X >= 0} || C X - B ||_F²
    given   G = Cᵀ C   (k × k, symmetric positive semidefinite)
    and     R = Cᵀ B   (k × c, one column per right-hand side)

and produces a nonnegative ``k × c`` solution.  This is precisely the data
the parallel algorithms hold after their collectives: for the W-update,
``G = H Hᵀ`` and ``Rᵀ`` is the local block of ``A Hᵀ``; for the H-update,
``G = Wᵀ W`` and ``R`` is the local block of ``Wᵀ A``.

Iterative solvers (MU, HALS) additionally take the
previous iterate as a warm start, which is how they are used inside the
alternating framework.  Every solver writes its solution into ``out`` when
one is given, and ``out`` may be the warm start itself: the fit loops pass
their persistent iterate as both, so a half-iteration allocates no factor.
HALS sweeps in ``out`` directly; the other solvers copy into it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional, Type

import numpy as np

from repro.util.errors import ShapeError


@dataclass
class NLSState:
    """Diagnostics returned by a solver alongside the solution."""

    iterations: int = 0
    backup_exchanges: int = 0
    full_exchanges: int = 0
    converged: bool = True
    extra: Dict[str, float] = field(default_factory=dict)


class NLSSolver(abc.ABC):
    """Abstract base class for normal-equations NLS solvers.

    A solver's constructor takes only its own options: BPP's inner engine
    (``BlockPrincipalPivoting(kernel=...)``, :mod:`repro.nls.kernels`) is an
    argument of BPP alone, and the element-wise solvers have none.
    """

    #: registry name; subclasses override
    name: str = "abstract"

    def __init__(self) -> None:
        self.last_state: Optional[NLSState] = None

    @abc.abstractmethod
    def solve(
        self,
        gram: np.ndarray,
        rhs: np.ndarray,
        x0: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Solve ``min_{X>=0} ||C X - B||`` given ``gram = CᵀC`` and ``rhs = CᵀB``.

        Parameters
        ----------
        gram:
            ``k × k`` symmetric positive semidefinite matrix.
        rhs:
            ``k × c`` right-hand side (``c`` independent columns).
        x0:
            Optional warm start of shape ``k × c`` (used by the iterative
            solvers; exact solvers may ignore it).
        out:
            Optional ``k × c`` float64 array that receives the solution and is
            returned; it may be ``x0``.

        Returns
        -------
        ndarray of shape ``k × c`` with nonnegative entries (``out`` when given).
        """

    # -- shared validation -------------------------------------------------
    @staticmethod
    def _validate(
        gram: np.ndarray,
        rhs: np.ndarray,
        x0: Optional[np.ndarray],
        out: Optional[np.ndarray] = None,
    ):
        gram = np.asarray(gram, dtype=np.float64)
        rhs = np.asarray(rhs, dtype=np.float64)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ShapeError(f"gram must be square, got shape {gram.shape}")
        if rhs.ndim == 1:
            rhs = rhs[:, None]
        if rhs.shape[0] != gram.shape[0]:
            raise ShapeError(
                f"rhs has {rhs.shape[0]} rows but gram is {gram.shape[0]}x{gram.shape[0]}"
            )
        if x0 is not None:
            x0 = np.asarray(x0, dtype=np.float64)
            if x0.shape != rhs.shape:
                raise ShapeError(f"x0 must have shape {rhs.shape}, got {x0.shape}")
        if out is not None and out.shape != rhs.shape:
            raise ShapeError(f"out must have shape {rhs.shape}, got {out.shape}")
        return gram, rhs, x0

    @staticmethod
    def _into(x: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        """The solution ``x``, copied into ``out`` when one was given."""
        if out is None or out is x:
            return x
        np.copyto(out, x)
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


_REGISTRY: Dict[str, Type[NLSSolver]] = {}


def register_solver(cls: Type[NLSSolver]) -> Type[NLSSolver]:
    """Class decorator adding a solver to the ``make_solver`` registry."""
    _REGISTRY[cls.name] = cls
    return cls


def available_solvers() -> list[str]:
    """Names accepted by :func:`make_solver` (and by ``NMFConfig.solver``)."""
    # Import for side effects so the registry is populated even if the caller
    # only imported repro.nls.base.
    from repro.nls import bpp, hals, mu  # noqa: F401

    return sorted(_REGISTRY)


def make_solver(name: str, **kwargs) -> NLSSolver:
    """Instantiate a registered solver by name ('bpp', 'hals' or 'mu')."""
    from repro.nls import bpp, hals, mu  # noqa: F401

    try:
        cls = _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown NLS solver {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)
