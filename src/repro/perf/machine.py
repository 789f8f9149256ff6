"""Machine description used by the analytic performance model.

The paper's experiments ran on NERSC "Edison" (§6.1.2): Cray XC30, two
12-core 2.4 GHz Ivy Bridge sockets per node (460.8 Gflop/s/node peak), 64 GB
per node, Aries dragonfly interconnect.  The model works per *process* (the
paper runs one MPI rank per core), so the relevant constants are

* ``gamma`` — seconds per flop for one core (peak 19.2 Gflop/s),
* ``alpha`` — per-message latency (~1.3 microseconds for Aries MPI),
* ``beta`` — seconds per 8-byte word of interconnect bandwidth available to
  one process (the ~8 GB/s node injection bandwidth shared by 24 ranks).

Peak flop rates are never achieved by real kernels, and *how far* from peak
differs strongly between a big DGEMM (the MM task), a rank-k update (Gram), a
stream of tiny Cholesky solves inside BPP (NLS), and a sparse SpMM.  The
:class:`MachineSpec` therefore carries per-kernel efficiency factors; the
defaults were chosen once so the modeled per-iteration times land in the same
range as the paper's Table 3 and are *not* fitted per experiment (see
``docs/ARCHITECTURE.md`` for the calibration note).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Mapping, Optional

from repro.comm.cost import EDISON, AlphaBetaGamma, CollectiveCost

#: Raw Edison node-level numbers used to derive the per-core constants.
EDISON_NODE = {
    "cores_per_node": 24,
    "peak_gflops_per_node": 460.8,
    "injection_bandwidth_gbps": 8.0,
    "mpi_latency_us": 1.3,
}

#: Per-link (alpha seconds, beta seconds-per-word) for backends whose
#: collectives cross a real wire, used by :meth:`MachineSpec.for_backend` to
#: price ``repro plan --backend socket|mpi``.  In-process backends have **no**
#: entry on purpose: they communicate at the machine's own memory constants,
#: so their pricing stays byte-stable.  The socket defaults describe loopback
#: TCP through the frame codec as the layered benchmark's 2-rank probe
#: measures it on a quiet 2-CPU host (``comm.backends.socket.p2p_lat_us``
#: 35-60, ``p2p_bw_mbs`` 1600-2700 since array frames stopped being staged
#: in user space; 260-370 before); the mpi defaults reuse the Edison Aries
#: constants (§6.1.2).
DEFAULT_LINK_COSTS: Mapping[str, tuple] = {
    "socket": (3.0e-5, 8.0 / 2.0e9),
    "mpi": (EDISON_NODE["mpi_latency_us"] * 1e-6,
            8.0 / (EDISON_NODE["injection_bandwidth_gbps"] * 1e9
                   / EDISON_NODE["cores_per_node"])),
}

#: :meth:`MachineSpec.calibrate`'s probe: a ``CALIBRATION_SIZE``-square GEMM
#: and a copy of ``CALIBRATION_SIZE²`` doubles, each timed best of
#: ``CALIBRATION_REPEATS``, on data drawn from ``CALIBRATION_SEED``.
CALIBRATION_SIZE = 384
CALIBRATION_REPEATS = 3
CALIBRATION_SEED = 0


@dataclass(frozen=True)
class MachineSpec:
    """Alpha-beta-gamma constants plus per-kernel efficiency factors."""

    network: AlphaBetaGamma
    #: Fraction of peak flop rate achieved by large dense matmuls (MM task).
    dense_mm_efficiency: float = 0.70
    #: Effective flop rate fraction for sparse matmuls (SpMM is memory bound).
    sparse_mm_efficiency: float = 0.08
    #: Fraction of peak achieved by the k×k Gram updates.
    gram_efficiency: float = 0.50
    #: Fraction of peak achieved inside BPP (tiny Cholesky solves, branching).
    nls_efficiency: float = 0.05
    #: Average number of BPP pivot iterations per NLS solve.
    bpp_iterations: float = 10.0
    #: Fraction of columns whose passive set is unique (cannot share a Cholesky).
    bpp_grouping_factor: float = 0.5

    @property
    def name(self) -> str:
        return self.network.name

    def collectives(self) -> CollectiveCost:
        return CollectiveCost(self.network)

    def dense_mm_seconds(self, flops: float) -> float:
        return flops * self.network.gamma / self.dense_mm_efficiency

    def sparse_mm_seconds(self, flops: float) -> float:
        return flops * self.network.gamma / self.sparse_mm_efficiency

    def gram_seconds(self, flops: float) -> float:
        return flops * self.network.gamma / self.gram_efficiency

    def nls_seconds(self, flops: float) -> float:
        return flops * self.network.gamma / self.nls_efficiency

    def link_cost(self, backend: Optional[str]) -> Optional[tuple]:
        """The wire ``(alpha, beta)`` of ``backend``, or ``None`` if in-process.

        The pair comes from :data:`DEFAULT_LINK_COSTS`.  Backends without an
        entry (thread/process/lockstep, unknown names, ``None``) communicate
        at the machine's own network constants.
        """
        if backend is None:
            return None
        entry = DEFAULT_LINK_COSTS.get(backend)
        if entry is None:
            return None
        alpha, beta = entry
        return (float(alpha), float(beta))

    def for_backend(self, backend: Optional[str]) -> "MachineSpec":
        """A spec whose network term reflects the given backend's wire.

        When ``backend`` has a per-link entry (the socket and mpi wire backends), the returned
        spec's ``alpha``/``beta`` are swapped for the link's latency and
        bandwidth (``gamma`` — the compute rate — is untouched) and the name
        gains a ``+backend`` suffix so plan tables show what was priced.
        Backends with no entry return ``self`` unchanged, keeping in-process
        pricing byte-stable.
        """
        link = self.link_cost(backend)
        if link is None:
            return self
        alpha, beta = link
        network = AlphaBetaGamma(
            alpha=alpha,
            beta=beta,
            gamma=self.network.gamma,
            name=f"{self.network.name}+{backend}",
        )
        return self.with_options(network=network)

    def with_options(self, **kwargs) -> "MachineSpec":
        return replace(self, **kwargs)

    @classmethod
    def calibrate(cls, ranks: int = 1) -> "MachineSpec":
        """Micro-benchmark *this* host and return a spec priced to it.

        Two quick measurements (well under a second in total):

        * a :data:`CALIBRATION_SIZE`-square GEMM, timed best-of-
          :data:`CALIBRATION_REPEATS` — its achieved flop rate becomes
          ``gamma`` (so ``dense_mm_efficiency`` is 1.0 by construction:
          gamma already reflects a real kernel, not peak);
        * a buffer copy of as many doubles — its per-word time becomes
          ``beta``, the in-process stand-in for interconnect bandwidth
          (rank-to-rank "communication" on the SPMD backends is a memcpy).

        With ``ranks > 1`` the GEMM is instead timed on the ``"process"``
        backend with ``ranks`` OS processes running it *concurrently*, so
        ``gamma`` reflects the per-rank flop rate under real contention
        (shared caches, memory bandwidth, SMT) — the number
        ``fit(variant="auto")`` should cost parallel plans against, rather
        than the single-rank rate times ``p``.  The slowest rank's best
        time is used: an SPMD iteration finishes when the last rank does.

        ``alpha`` is fixed at 100 ns, a deposit-slot handoff rather than a
        NIC round-trip.  The relative kernel efficiencies (sparse MM, Gram,
        NLS) keep their defaults — they describe kernel *shapes*, not the
        host — and the wire backends keep their :data:`DEFAULT_LINK_COSTS`.

        The deterministic Edison constants (:func:`edison_machine`) remain
        the default everywhere; calibration is opt-in (``repro plan --machine
        local``, ``fit(..., machine=MachineSpec.calibrate())``) so tests and
        figure regeneration stay reproducible.
        """
        import numpy as np

        from repro.core.local_ops import dense_matmul_flops

        size, repeats = CALIBRATION_SIZE, CALIBRATION_REPEATS
        flops = dense_matmul_flops(size, size, size)
        gamma, name = None, "local-calibrated"
        if ranks > 1:
            from repro.comm.backends import run_spmd

            try:
                per_rank_best = run_spmd(
                    ranks, _gemm_probe, name="calibrate", backend="process",
                )
            except Exception as exc:  # noqa: BLE001 - probe is best-effort
                # No fork on this platform, fork refused (rlimits, memory
                # pressure), or the probe ranks failed: degrade to the
                # single-rank probe rather than turning a pricing request
                # into an executor error.
                import warnings

                warnings.warn(
                    f"parallel calibration on the process backend failed "
                    f"({exc}); falling back to a single-rank GEMM probe",
                    RuntimeWarning,
                    stacklevel=2,
                )
            else:
                gamma = max(per_rank_best) / flops
                name = f"local-calibrated-p{ranks}"
        if gamma is None:
            gamma = _gemm_probe(None) / flops

        rng = np.random.default_rng(CALIBRATION_SEED)
        src = rng.standard_normal(size * size)
        dst = np.empty_like(src)
        np.copyto(dst, src)  # warm-up
        copy_best = min(_timed(lambda: np.copyto(dst, src)) for _ in range(repeats))
        beta = copy_best / src.size

        network = AlphaBetaGamma(alpha=1.0e-7, beta=beta, gamma=gamma, name=name)
        return cls(network=network, dense_mm_efficiency=1.0)


def _gemm_probe(comm) -> float:
    """Best-of-:data:`CALIBRATION_REPEATS` seconds for one square GEMM on this rank.

    Runs standalone (``comm=None``) or as an SPMD program: with a
    communicator the ranks align on a barrier after warm-up so the timed
    GEMMs genuinely contend, and each rank draws its data from the package's
    deterministic per-rank seeding.
    """
    import numpy as np

    from repro.util.seeding import per_rank_seed

    rank = comm.rank if comm is not None else 0
    rng = np.random.default_rng(per_rank_seed(CALIBRATION_SEED, rank))
    x = rng.standard_normal((CALIBRATION_SIZE, CALIBRATION_SIZE))
    y = rng.standard_normal((CALIBRATION_SIZE, CALIBRATION_SIZE))
    x @ y  # warm-up: BLAS thread pools, page faults
    if comm is not None:
        comm.barrier()
    return min(_timed(lambda: x @ y) for _ in range(CALIBRATION_REPEATS))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def edison_machine() -> MachineSpec:
    """The default Edison-calibrated machine model (§6.1.2)."""
    return MachineSpec(network=EDISON)
