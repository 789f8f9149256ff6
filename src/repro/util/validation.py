"""Input validation helpers used across the public API.

These helpers normalise user input (lists, matrices of any dtype, sparse
matrices) into the canonical forms the algorithms expect: C-contiguous
float64 ndarrays for dense data and CSR for sparse data.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.util.errors import NonNegativityError, ShapeError


def is_sparse(A) -> bool:
    """Return True if ``A`` is a scipy sparse matrix/array.

    Nothing is sparse before :mod:`scipy.sparse` is loaded, so this never
    loads it: a program that only ever sees dense input does not pay for it.
    """
    sp = sys.modules.get("scipy.sparse")
    return sp is not None and sp.issparse(A)


def _canonical(A, name: str):
    """``A`` as CSR or an ndarray with float64 values, shape-checked."""
    if is_sparse(A):
        from scipy.sparse import csr_matrix

        A = csr_matrix(A, dtype=np.float64)
    else:
        A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got {A.ndim}-D")
    if min(A.shape) == 0:
        raise ShapeError(f"{name} has a zero dimension: shape {A.shape}")
    return A


def check_matrix(A, name: str = "A"):
    """Validate a 2-D matrix input and return it in canonical form.

    Dense inputs are returned as C-contiguous float64 arrays; sparse inputs
    are converted to CSR with float64 data.

    Raises
    ------
    ShapeError
        If the input is not two-dimensional, has a zero dimension, or holds
        a NaN or Inf entry (for sparse input: a NaN or Inf stored value).
    """
    A = _canonical(A, name)
    sparse = is_sparse(A)
    # A NaN propagates through min and max, and ±Inf is one of them: two
    # reductions instead of an m × n boolean temporary.
    values = A.data if sparse else A
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise ShapeError(f"{name} contains NaN or Inf entries")
    return A if sparse else np.ascontiguousarray(A)


def check_nonnegative(A, name: str = "A") -> None:
    """Raise :class:`NonNegativityError` if ``A`` has any negative entry."""
    data = A.data if is_sparse(A) else A
    if data.size and np.min(data) < 0:
        raise NonNegativityError(f"{name} must be elementwise nonnegative")


#: The bits of +Inf read as an unsigned integer.  A float64 whose bits are
#: below it is finite with its sign bit clear: +0.0 up to the largest double.
_INF_BITS = 0x7FF0000000000000


def check_nonnegative_matrix(A, name: str = "A"):
    """:func:`check_matrix` then :func:`check_nonnegative`, in one pass over
    valid input.

    One unsigned maximum over the values' bits accepts every matrix whose
    entries are all finite with the sign bit clear.  Only input that fails it
    (a NaN, an Inf, a negative, or a −0.0) runs the two exact checks, so a
    NaN or Inf still raises :class:`ShapeError` before a negative raises
    :class:`NonNegativityError`, and −0.0 is accepted.
    """
    A = _canonical(A, name)
    values = A.data if is_sparse(A) else A
    if values.size and not values.view(np.uint64).max() < _INF_BITS:
        A = check_matrix(A, name)
        check_nonnegative(A, name)
    return A if is_sparse(A) else np.ascontiguousarray(A)


def check_rank(k: int, m: int, n: int) -> int:
    """Validate the target rank ``k`` against the matrix dimensions."""
    k = int(k)
    if k < 1:
        raise ShapeError(f"rank k must be >= 1, got {k}")
    if k > min(m, n):
        raise ShapeError(f"rank k={k} exceeds min(m, n)={min(m, n)}")
    return k
