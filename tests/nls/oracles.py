"""Reference answers for the NLS tests: Lawson–Hanson NNLS and the KKT check.

:func:`active_set_nnls` is the classic Lawson–Hanson active-set algorithm for
one right-hand side at a time.  It adds one variable at a time to the passive
set and is therefore slow for many right-hand sides, but it is simple enough
to trust as a reference: the tests check that BPP produces the same
solutions (BPP is exact at termination, so both must agree on the unique
minimizer when ``CᵀC`` is positive definite).  It works directly from the
normal equations ``G = CᵀC``, ``r = Cᵀb``, the interface of the solvers in
:mod:`repro.nls`.

:func:`kkt_residual` / :func:`check_kkt` test optimality (paper Eq. 6).  For
``min_{x>=0} ||Cx − b||²`` the KKT conditions are

    y = G x − r,     x >= 0,     y >= 0,     xᵀ y = 0,

and the residual is the largest violation of the three inequality and
complementarity conditions; a point is accepted as optimal when that
violation is below a tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ShapeError, SolverError


def active_set_nnls(gram: np.ndarray, rhs: np.ndarray, max_iters: int = 0) -> np.ndarray:
    """Solve ``min_{x>=0} ||Cx - b||`` given ``gram = CᵀC`` and ``rhs = Cᵀb``.

    Parameters
    ----------
    gram:
        ``k × k`` symmetric positive semidefinite matrix.
    rhs:
        Length-``k`` vector (single right-hand side) or ``k × c`` matrix, in
        which case the columns are solved independently.
    max_iters:
        Safety cap on active-set iterations; 0 means ``3 * k`` per column.

    Returns
    -------
    ndarray with the same shape as ``rhs``.
    """
    gram = np.asarray(gram, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ShapeError(f"gram must be square, got {gram.shape}")
    if rhs.ndim == 2:
        return np.column_stack(
            [active_set_nnls(gram, rhs[:, j], max_iters=max_iters) for j in range(rhs.shape[1])]
        )
    k = gram.shape[0]
    if rhs.shape != (k,):
        raise ShapeError(f"rhs must have shape ({k},), got {rhs.shape}")
    limit = max_iters if max_iters > 0 else max(3 * k, 30)

    x = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    gradient = rhs - gram @ x  # equals -y in the paper's notation

    for _ in range(limit):
        candidates = (~passive) & (gradient > 1e-12)
        if not np.any(candidates):
            break
        # Add the most violated variable to the passive set.
        j = int(np.argmax(np.where(candidates, gradient, -np.inf)))
        passive[j] = True

        # Inner loop: solve on the passive set and step back if any passive
        # variable would become negative.
        while True:
            idx = np.flatnonzero(passive)
            z = np.zeros(k)
            sub = gram[np.ix_(idx, idx)]
            try:
                z[idx] = np.linalg.solve(sub, rhs[idx])
            except np.linalg.LinAlgError:
                z[idx] = np.linalg.lstsq(sub, rhs[idx], rcond=None)[0]
            if np.all(z[idx] > -1e-12):
                x = np.maximum(z, 0.0)
                break
            # Step from x toward z until the first passive variable hits zero.
            negative = idx[z[idx] <= -1e-12]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = x[negative] / (x[negative] - z[negative])
            alpha = float(np.min(ratios))
            x = x + alpha * (z - x)
            np.maximum(x, 0.0, out=x)
            passive = passive & (x > 1e-12)
            if not np.any(passive):
                x = np.zeros(k)
                break
        gradient = rhs - gram @ x
    else:
        raise SolverError(f"active-set NNLS did not converge within {limit} iterations")
    return x




def kkt_residual(gram: np.ndarray, rhs: np.ndarray, x: np.ndarray) -> float:
    """Maximum violation of the KKT conditions at ``x`` (0 means optimal)."""
    gram = np.asarray(gram, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if rhs.ndim == 1:
        rhs = rhs[:, None]
    if x.ndim == 1:
        x = x[:, None]
    y = gram @ x - rhs
    primal = float(np.max(np.maximum(-x, 0.0), initial=0.0))
    dual = float(np.max(np.maximum(-y, 0.0), initial=0.0))
    complementarity = float(np.max(np.abs(x * y), initial=0.0))
    return max(primal, dual, complementarity)


def check_kkt(
    gram: np.ndarray,
    rhs: np.ndarray,
    x: np.ndarray,
    tol: float = 1e-6,
    scale_free: bool = True,
) -> bool:
    """True when ``x`` satisfies the KKT conditions to tolerance ``tol``.

    With ``scale_free=True`` (default) the tolerance is relative to the
    magnitude of the problem data, which keeps the check meaningful across the
    wide dynamic ranges the property tests generate.
    """
    scale = 1.0
    if scale_free:
        scale = max(
            1.0,
            float(np.max(np.abs(rhs), initial=0.0)),
            float(np.max(np.abs(gram), initial=0.0)),
        )
    return kkt_residual(gram, rhs, x) <= tol * scale
