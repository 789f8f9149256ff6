"""The four workloads: inputs, library calls, and what a correct output is.

Why each workload exists is written once, in ``BENCHMARK.json``.

Sizes are for a 2-CPU host (p = 2 ranks, one BLAS thread each).  ``smoke``
divides every shape by 8 for the tier-1 smoke test.  The library is called
with its defaults except for the arguments named here, so a later change of
a default shows up in the numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

SMOKE_DIVISOR = 8


@dataclass(frozen=True)
class FitWorkload:
    name: str
    kind: str                 # "dense" (planted low rank) or "sparse" (Erdős–Rényi)
    m: int
    n: int
    k: int
    backend: str
    solver: str
    max_iters: int
    density: float = 0.0
    is_fit: bool = field(default=True, init=False)

    def shape(self, smoke: bool) -> Tuple[int, int]:
        d = SMOKE_DIVISOR if smoke else 1
        return self.m // d, self.n // d

    def generate(self, seed: int, smoke: bool):
        """The input matrix; the program only ever sees this, never the seed's RNG."""
        from repro.data import planted_lowrank, sparse_synthetic

        m, n = self.shape(smoke)
        if self.kind == "dense":
            return planted_lowrank(m, n, self.k, seed=seed, noise_std=0.05)
        # Keep nnz per row constant under --smoke so no row or column empties.
        density = self.density * (SMOKE_DIVISOR if smoke else 1)
        return sparse_synthetic(m, n, density=density, seed=seed)

    def fit_kwargs(self, seed: int, ranks: int, smoke: bool) -> dict:
        return {
            "variant": "hpc2d",
            "n_ranks": ranks,
            "backend": self.backend,
            "solver": self.solver,
            "max_iters": max(4, self.max_iters // 2) if smoke else self.max_iters,
            "seed": seed,
        }


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    m: int = 1024
    k: int = 16
    columns_per_request: int = 8
    connections: int = 2
    pool: int = 256           # distinct request bodies, cycled by the clients
    warmup_requests: int = 100
    verify_samples: int = 16
    is_fit: bool = field(default=False, init=False)

    def sizes(self, smoke: bool) -> Tuple[int, int, int]:
        """(m, pool, warm-up requests)."""
        if smoke:
            return self.m // SMOKE_DIVISOR, 16, 8
        return self.m, self.pool, self.warmup_requests


WORKLOADS = {
    w.name: w
    for w in (
        FitWorkload(
            name="dense_bpp",
            kind="dense", m=2048, n=1536, k=16,
            backend="process", solver="bpp", max_iters=20,
        ),
        FitWorkload(
            name="dense_mm",
            kind="dense", m=6000, n=4000, k=32,
            backend="process", solver="hals", max_iters=12,
        ),
        FitWorkload(
            name="sparse_wire",
            kind="sparse", m=120000, n=80000, k=32, density=1e-4,
            backend="socket", solver="hals", max_iters=6,
        ),
        ServeWorkload(
            name="serve_project",
        ),
    )
}

#: Per-layer ``core.*`` numbers need a fit loop and ``serve.*`` a server: a
#: traced run of the other kind takes them from these two.
DEFAULT_FIT_WORKLOAD = "dense_bpp"   # the paper's default configuration
SERVE_WORKLOAD = "serve_project"


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def check_fit_result(result, expected_iters: int) -> List[str]:
    """Problems with one fit's outputs (empty when correct)."""
    import numpy as np

    problems = []
    for name, factor in (("W", result.W), ("H", result.H)):
        if not np.isfinite(factor).all():
            problems.append(f"{name} has non-finite entries")
        elif (factor < 0).any():
            problems.append(f"{name} has negative entries")
    errors = result.relative_error_history
    if len(errors) != expected_iters:
        problems.append(f"history has {len(errors)} entries, expected {expected_iters}")
    for prev, cur in zip(errors, errors[1:]):
        if cur > prev + 1e-12:
            problems.append(f"relative error rose from {prev!r} to {cur!r}")
            break
    return problems


def expected_ledger(
    m: int, n: int, k: int, grid: Tuple[int, int], iters: int
) -> Dict[str, Dict[str, float]]:
    """Rank 0's words and messages for ``iters`` HPC-NMF iterations (§5, ledger units).

    Per iteration the column communicator (``pr`` ranks) all-gathers ``H_j``
    (``k × n/pc`` words) and reduce-scatters ``Wᵀ A`` of the same size; the row
    communicator (``pc`` ranks) does the same with ``W_i`` (``m/pr × k``).
    With the objective tracked, the world all-reduces one ``k × k`` Gram and
    one scalar cross term per half-iteration pair plus the ``H`` Gram the
    next iteration reuses, and one more Gram before the first iteration.
    """
    pr, pc = grid
    p = pr * pc
    m0, n0 = math.ceil(m / pr), math.ceil(n / pc)
    factor_words = factor_msgs = 0.0
    if pr > 1:
        factor_words += (pr - 1) / pr * k * n0
        factor_msgs += math.log2(pr)
    if pc > 1:
        factor_words += (pc - 1) / pc * k * m0
        factor_msgs += math.log2(pc)
    ledger = {
        "all_gather": {"words": iters * factor_words, "messages": iters * factor_msgs},
        "reduce_scatter": {"words": iters * factor_words, "messages": iters * factor_msgs},
    }
    if p > 1:
        ledger["all_reduce"] = {
            "words": 2.0 * (p - 1) / p * ((2 * iters + 1) * k * k + iters),
            "messages": 2.0 * math.log2(p) * (3 * iters + 1),
        }
    return ledger


def check_ledger(result, shape: Tuple[int, int], k: int) -> List[str]:
    """Compare ``result.ledger_summary`` with the closed form for its grid."""
    expected = expected_ledger(shape[0], shape[1], k, tuple(result.grid_shape), result.iterations)
    problems = []
    for op, want in expected.items():
        got = result.ledger_summary.get(op, {})
        for key in ("words", "messages"):
            have = float(got.get(key, 0.0))
            if not math.isclose(have, want[key], rel_tol=1e-12, abs_tol=0.0):
                problems.append(f"ledger {op}.{key} = {have!r}, closed form {want[key]!r}")
    extra = set(result.ledger_summary) - set(expected)
    if extra:
        problems.append(f"ledger has unexpected collectives {sorted(extra)}")
    return problems


def ledger_per_iteration(result) -> Tuple[float, float]:
    """(words, messages) per iteration summed over every collective."""
    words = sum(float(e["words"]) for e in result.ledger_summary.values())
    msgs = sum(float(e["messages"]) for e in result.ledger_summary.values())
    iters = max(1, result.iterations)
    return words / iters, msgs / iters


def relative_gap(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def in_model_columns(W, columns: int, rng):
    """``columns`` request columns near the basis: ``max(W h + 0.02·noise, 0)``.

    ``h`` is bounded away from zero, the regime a deployed model sees (most
    columns share passive-set patterns).
    """
    import numpy as np

    m, k = W.shape
    h = 0.25 + np.abs(rng.standard_normal((k, columns)))
    return np.maximum(W @ h + 0.02 * rng.standard_normal((m, columns)), 0.0)


def basis_model(W, seed: int = 0):
    """A servable ``NMFResult`` around the basis ``W`` (``H`` is a placeholder)."""
    import numpy as np

    from repro.core.config import NMFConfig
    from repro.core.result import NMFResult

    k = W.shape[1]
    H = np.abs(np.random.default_rng(seed).standard_normal((k, 8)))
    return NMFResult(W=W, H=H, config=NMFConfig(k=k, seed=seed), iterations=1)


def serve_inputs(workload: ServeWorkload, seed: int, smoke: bool):
    """(W, request blocks): a synthetic basis and the pool of in-model requests."""
    import numpy as np

    m, pool, _ = workload.sizes(smoke)
    rng = np.random.default_rng(seed)
    W = np.abs(rng.standard_normal((m, workload.k)))
    blocks = [in_model_columns(W, workload.columns_per_request, rng) for _ in range(pool)]
    return W, blocks


def get(name: str):
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None
