"""The alpha-beta-gamma communication/computation cost model (paper §2.2-2.3).

In this model a message of ``n`` words costs ``alpha + n * beta`` where
``alpha`` is per-message latency and ``beta`` per-word inverse bandwidth, and
each floating-point operation costs ``gamma``.  The collective costs the paper
quotes (and that this module reproduces) are, for ``p`` processes and total
data of ``n`` words:

==================  =====================================================
all-gather          ``alpha*log2(p) + beta*(p-1)/p * n``
reduce-scatter      ``alpha*log2(p) + (beta+gamma)*(p-1)/p * n``
all-reduce          ``2*alpha*log2(p) + (2*beta+gamma)*(p-1)/p * n``
==================  =====================================================

All costs are zero when ``p == 1``.

Two things are built on the model:

* :class:`CollectiveCost` — evaluates the closed-form cost of each collective,
  used by the analytic performance model (:mod:`repro.perf.model`) to
  regenerate the paper's figures at paper scale, and — through those
  closed forms — by the planning layer (:mod:`repro.plan`) to score
  variant × grid candidates for ``fit(..., variant="auto")``;
* :class:`CostLedger` — a per-rank ledger that records, for every collective a
  :class:`~repro.comm.communicator.Comm` actually executes, the operation
  name, the number of words moved and the number of messages on the critical
  path.  Tests compare the ledger totals against the paper's per-iteration
  expressions (§4.3 and §5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class AlphaBetaGamma:
    """Machine constants of the alpha-beta-gamma model.

    Parameters
    ----------
    alpha:
        Per-message latency in seconds.
    beta:
        Per-word (8-byte double) transfer time in seconds.
    gamma:
        Per-flop time in seconds.
    name:
        Human-readable label for reports.
    """

    alpha: float
    beta: float
    gamma: float
    name: str = "generic"


#: Machine constants approximating one node of NERSC "Edison" (§6.1.2):
#: dual-socket 12-core Ivy Bridge, 460.8 Gflop/s per node (19.2 Gflop/s per
#: core), Cray Aries dragonfly interconnect (~8 GB/s per-node MPI bandwidth,
#: ~1.3 microsecond latency).  Per-core constants are used because the paper
#: reports per-core (per-process) scaling.
EDISON = AlphaBetaGamma(
    alpha=1.3e-6,
    beta=8.0 / (8.0e9 / 24.0),  # seconds per 8-byte word, per-core share of NIC
    gamma=1.0 / 19.2e9,
    name="edison",
)

class CollectiveCost:
    """Closed-form costs of the MPI collectives under an ``AlphaBetaGamma`` model.

    ``n_words`` always refers to the *total* data size of the collective as
    defined in §2.3: for all-gather the size of the gathered result, for
    reduce-scatter and all-reduce the size of the per-rank input.
    """

    def __init__(self, machine: AlphaBetaGamma):
        self.machine = machine

    @staticmethod
    def _log2p(p: int) -> float:
        return math.log2(p) if p > 1 else 0.0

    def all_gather(self, p: int, n_words: float) -> float:
        if p <= 1:
            return 0.0
        m = self.machine
        return m.alpha * self._log2p(p) + m.beta * (p - 1) / p * n_words

    def reduce_scatter(self, p: int, n_words: float) -> float:
        if p <= 1:
            return 0.0
        m = self.machine
        return m.alpha * self._log2p(p) + (m.beta + m.gamma) * (p - 1) / p * n_words

    def all_reduce(self, p: int, n_words: float) -> float:
        if p <= 1:
            return 0.0
        m = self.machine
        return 2 * m.alpha * self._log2p(p) + (2 * m.beta + m.gamma) * (p - 1) / p * n_words


@dataclass
class LedgerEntry:
    """Aggregated record of one collective type on one communicator size."""

    operation: str
    calls: int = 0
    words: float = 0.0
    messages: float = 0.0
    reduction_flops: float = 0.0

    def add(self, words: float, messages: float, reduction_flops: float = 0.0) -> None:
        self.calls += 1
        self.words += words
        self.messages += messages
        self.reduction_flops += reduction_flops


@dataclass
class CostLedger:
    """Per-rank record of communication volume along the critical path.

    ``words`` counts 8-byte words communicated by this rank (the
    ``(p-1)/p * n`` critical-path volume of the optimal collective
    algorithms), and ``messages`` counts the ``log2 p``-style message counts.
    The ledger is what the tests check against the closed-form per-iteration
    costs derived in §4.3 (Naive) and §5 (HPC-NMF).
    """

    entries: dict = field(default_factory=dict)

    def _entry(self, operation: str) -> LedgerEntry:
        if operation not in self.entries:
            self.entries[operation] = LedgerEntry(operation)
        return self.entries[operation]

    def record(self, operation: str, p: int, n_words: float) -> None:
        """Record one collective of total size ``n_words`` over ``p`` ranks."""
        if p <= 1:
            return
        log2p = math.log2(p)
        frac = (p - 1) / p * n_words
        if operation == "all_gather":
            self._entry(operation).add(words=frac, messages=log2p)
        elif operation == "reduce_scatter":
            self._entry(operation).add(words=frac, messages=log2p, reduction_flops=frac)
        elif operation == "all_reduce":
            self._entry(operation).add(words=2 * frac, messages=2 * log2p, reduction_flops=frac)
        else:
            self._entry(operation).add(words=n_words, messages=1.0)

    def summary(self) -> dict:
        """Return a plain-dict summary suitable for reports and JSON output."""
        return {
            op: {
                "calls": e.calls,
                "words": e.words,
                "messages": e.messages,
                "reduction_flops": e.reduction_flops,
            }
            for op, e in sorted(self.entries.items())
        }
