"""The :class:`ProblemSpec`: what the cost model needs to know about a problem.

The analytic model of §4.3/§5 prices an NMF iteration from five numbers —
``m``, ``n``, the nonzero count, the rank ``k`` and the word size.  Before
the planning layer existed, those numbers could only come from a *named*
:class:`~repro.data.registry.DatasetSpec`, which tied the whole analysis
stack to the paper's four datasets.  :class:`ProblemSpec` carries exactly
those five numbers and nothing else, and is derivable from

* any in-memory matrix (dense ndarray or scipy sparse) via
  :meth:`ProblemSpec.from_matrix` — this is what ``fit(A, k,
  variant="auto")`` uses,
* a registered dataset via :meth:`ProblemSpec.from_dataset` — what
  ``repro plan SSYN`` and ``examples/scaling_study.py`` price the paper's
  datasets through,
* bare dimensions via the constructor (the CLI's ``repro plan --shape``).

The cost functions of :mod:`repro.perf.model` take a :class:`ProblemSpec`
and nothing else, and read the rank ``k`` from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.util.errors import ShapeError


@dataclass(frozen=True)
class ProblemSpec:
    """Dimensions of one NMF problem instance, as the cost model sees it.

    Parameters
    ----------
    m, n:
        Data matrix dimensions.
    k:
        Target factorization rank.
    nnz:
        Nonzero count for sparse problems; ``None`` means dense (every
        entry counts).
    dtype:
        Element dtype name; the model works in 8-byte words, so this is
        informational provenance (the paper's runs are all float64).
    name:
        Optional human-readable label carried into plan tables and
        provenance (e.g. the dataset registry key).
    """

    m: int
    n: int
    k: int
    nnz: Optional[float] = None
    dtype: str = "float64"
    name: str = ""

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ShapeError(f"matrix dimensions must be positive, got {self.m}x{self.n}")
        if self.k < 1:
            raise ShapeError(f"rank k must be >= 1, got {self.k}")
        if self.nnz is not None and not 0 <= self.nnz <= float(self.m) * float(self.n):
            raise ShapeError(
                f"nnz={self.nnz} outside [0, m*n={float(self.m) * float(self.n):g}]"
            )

    # -- derived quantities (the DatasetSpec-compatible views) --------------
    @property
    def is_sparse(self) -> bool:
        return self.nnz is not None

    @property
    def nnz_estimate(self) -> float:
        """Nonzeros the MM kernels touch: ``nnz`` sparse, ``m*n`` dense."""
        if self.nnz is not None:
            return float(self.nnz)
        return float(self.m) * float(self.n)

    def describe(self) -> str:
        """One-line form used by plan tables and summaries."""
        label = f"{self.name} " if self.name else ""
        shape = f"{self.m}x{self.n}"
        kind = f"sparse, nnz={self.nnz_estimate:.4g}" if self.is_sparse else "dense"
        return f"{label}({shape}, {kind}, k={self.k})"

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_matrix(cls, A, k: int, name: str = "") -> "ProblemSpec":
        """Derive the spec from any in-memory dense or scipy-sparse matrix."""
        import numpy as np

        from repro.util.validation import is_sparse

        if not is_sparse(A):
            A = np.asarray(A)
        if A.ndim != 2:
            raise ShapeError(f"expected a 2-D matrix, got {A.ndim}-D")
        m, n = A.shape
        nnz = float(A.nnz) if is_sparse(A) else None
        return cls(m=int(m), n=int(n), k=int(k), nnz=nnz, dtype=str(A.dtype), name=name)

    @classmethod
    def from_dataset(cls, spec, k: int) -> "ProblemSpec":
        """Adapter from a :class:`~repro.data.registry.DatasetSpec`.

        Duck-typed on the ``m``/``n``/``is_sparse``/``nnz_estimate``/``name``
        attributes so this module does not import :mod:`repro.data`.
        """
        nnz = float(spec.nnz_estimate) if spec.is_sparse else None
        return cls(
            m=int(spec.m),
            n=int(spec.n),
            k=int(k),
            nnz=nnz,
            name=str(getattr(spec, "name", "")),
        )

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "nnz": self.nnz,
            "dtype": self.dtype,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ProblemSpec":
        return cls(**payload)

