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
EXPERIMENTS.md for the calibration note).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Mapping, Optional

from repro.comm.cost import EDISON, LAPTOP, AlphaBetaGamma, CollectiveCost

#: Raw Edison node-level numbers used to derive the per-core constants.
EDISON_NODE = {
    "cores_per_node": 24,
    "peak_gflops_per_node": 460.8,
    "injection_bandwidth_gbps": 8.0,
    "mpi_latency_us": 1.3,
}

#: NLS throughput of each BPP kernel relative to the default kernel
#: (``repro.nls.kernels.DEFAULT_KERNEL``, 1.0 by definition, so default
#: pricing is what ``kernel=None`` runs), used when a spec carries no measured
#: ratios (``MachineSpec.calibrate`` measures the real ones).  Measured (PR 12,
#: 2-CPU host, BLAS pinned): the 80 per-rank solves of a 20-iteration
#: ``dense_bpp`` fit replay in 1.98 s on ``scalar`` and 0.34 s on ``batched``.
DEFAULT_KERNEL_SPEEDUPS: Mapping[str, float] = {
    "batched": 1.0,
    "scalar": 0.17,
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
#: ``MachineSpec.calibrate(rate_links=True)`` replaces the socket entry with
#: a measured 2-rank ping/stream probe.
DEFAULT_LINK_COSTS: Mapping[str, tuple] = {
    "socket": (3.0e-5, 8.0 / 2.0e9),
    "mpi": (EDISON_NODE["mpi_latency_us"] * 1e-6,
            8.0 / (EDISON_NODE["injection_bandwidth_gbps"] * 1e9
                   / EDISON_NODE["cores_per_node"])),
}


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
    #: Measured NLS throughput of each BPP kernel relative to the default one
    #: (``None`` = use :data:`DEFAULT_KERNEL_SPEEDUPS`).  Filled in by
    #: :meth:`calibrate`; read by :meth:`kernel_speedup` / :meth:`for_kernel`.
    kernel_speedups: Optional[Mapping[str, float]] = None
    #: Per-backend wire (alpha, beta) overrides (``None`` =
    #: :data:`DEFAULT_LINK_COSTS`).  Only wire backends have entries; read by
    #: :meth:`link_cost` / :meth:`for_backend`, filled by
    #: ``calibrate(rate_links=True)``.
    link_costs: Optional[Mapping[str, tuple]] = None

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

    def nls_seconds(self, flops: float, kernel: Optional[str] = None) -> float:
        seconds = flops * self.network.gamma / self.nls_efficiency
        if kernel is not None:
            seconds /= self.kernel_speedup(kernel)
        return seconds

    def kernel_speedup(self, kernel: str) -> float:
        """NLS throughput of a BPP kernel relative to the default one (>= 0).

        Unknown kernel names price like the default (ratio 1.0) rather than
        raising — the planner validates names before pricing.
        """
        table = self.kernel_speedups or DEFAULT_KERNEL_SPEEDUPS
        return float(table.get(kernel, 1.0))

    def link_cost(self, backend: Optional[str]) -> Optional[tuple]:
        """The wire ``(alpha, beta)`` of ``backend``, or ``None`` if in-process.

        Backends without an entry (thread/process/lockstep, unknown names,
        ``None``) communicate at the machine's own network constants.
        """
        if backend is None:
            return None
        table = self.link_costs or DEFAULT_LINK_COSTS
        entry = table.get(backend)
        if entry is None:
            return None
        alpha, beta = entry
        return (float(alpha), float(beta))

    def for_backend(self, backend: Optional[str]) -> "MachineSpec":
        """A spec whose network term reflects the given backend's wire.

        The planner's counterpart to :meth:`for_kernel`: when ``backend`` has
        a per-link entry (the socket and mpi wire backends), the returned
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

    def for_kernel(self, kernel: Optional[str]) -> "MachineSpec":
        """A spec whose NLS efficiency reflects the given BPP kernel.

        This is how the planner threads the kernel choice through the variant
        cost hooks without changing their signatures: the returned spec's
        ``nls_efficiency`` is scaled by the kernel's speedup ratio, so every
        downstream ``nls_seconds`` call prices the chosen engine.  ``None``
        or the default kernel (ratio 1.0) return ``self`` unchanged, keeping
        default pricing byte-stable.
        """
        if kernel is None:
            return self
        ratio = self.kernel_speedup(kernel)
        if ratio == 1.0:
            return self
        return self.with_options(nls_efficiency=self.nls_efficiency * ratio)

    def with_options(self, **kwargs) -> "MachineSpec":
        return replace(self, **kwargs)

    @classmethod
    def calibrate(
        cls,
        size: int = 384,
        repeats: int = 3,
        seed: int = 0,
        ranks: int = 1,
        rate_kernels: bool = True,
        rate_links: bool = False,
    ) -> "MachineSpec":
        """Micro-benchmark *this* host and return a spec priced to it.

        Two quick measurements (well under a second in total):

        * a ``size × size`` GEMM, timed best-of-``repeats`` — its achieved
          flop rate becomes ``gamma`` (so ``dense_mm_efficiency`` is 1.0 by
          construction: gamma already reflects a real kernel, not peak);
        * a ``size²``-double buffer copy — its per-word time becomes
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
        host.

        With ``rate_kernels`` (the default) every BPP kernel is additionally
        timed on a representative NLS problem and the measured throughput
        ratios are stored in :attr:`kernel_speedups`, so ``repro plan
        --machine local --kernel ...`` prices the actual engines on this host.

        The deterministic Edison constants (:func:`edison_machine`) remain
        the default everywhere; calibration is opt-in (``repro plan --machine
        local``, ``fit(..., machine=MachineSpec.calibrate())``) so tests and
        figure regeneration stay reproducible.

        With ``rate_links`` the socket wire is additionally measured with a
        2-rank ping/stream probe on the socket backend (see
        :func:`_link_probe`): small-message round-trips give the per-frame
        latency ``alpha``, a streamed 1 MiB payload gives the per-word
        ``beta``; the measured pair replaces the static
        :data:`DEFAULT_LINK_COSTS` socket entry in :attr:`link_costs`, so
        ``repro plan --machine local --backend socket`` prices this host's
        actual wire.  A failed probe keeps the static defaults (with a
        :class:`RuntimeWarning`).
        """
        import numpy as np

        from repro.core.local_ops import dense_matmul_flops

        flops = dense_matmul_flops(size, size, size)
        gamma, name = None, "local-calibrated"
        if ranks > 1:
            from repro.comm.backends import run_spmd

            try:
                per_rank_best = run_spmd(
                    ranks, _gemm_probe, size, repeats, seed,
                    name="calibrate", backend="process",
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
            gamma = _gemm_probe(None, size, repeats, seed) / flops

        rng = np.random.default_rng(seed)
        src = rng.standard_normal(size * size)
        dst = np.empty_like(src)
        np.copyto(dst, src)  # warm-up
        copy_best = min(_timed(lambda: np.copyto(dst, src)) for _ in range(repeats))
        beta = copy_best / src.size

        kernel_speedups = None
        if rate_kernels:
            from repro.nls import available_kernels, make_solver
            from repro.nls.kernels import DEFAULT_KERNEL

            kk, cc = 10, 128
            C = rng.standard_normal((2 * kk, kk))
            B = rng.standard_normal((2 * kk, cc))
            gram_mat = C.T @ C
            rhs = C.T @ B
            times = {}
            for kern in available_kernels():
                solver = make_solver("bpp", kernel=kern)
                solver.solve(gram_mat, rhs)  # warm-up
                times[kern] = min(
                    _timed(lambda: solver.solve(gram_mat, rhs))
                    for _ in range(max(repeats, 1))
                )
            default_time = times[DEFAULT_KERNEL]
            kernel_speedups = {k: default_time / t for k, t in times.items()}

        link_costs = None
        if rate_links:
            from repro.comm.backends import run_spmd

            try:
                per_rank = run_spmd(
                    2, _link_probe, repeats,
                    name="calibrate-link", backend="socket",
                )
            except Exception as exc:  # noqa: BLE001 - probe is best-effort
                import warnings

                warnings.warn(
                    f"link calibration on the socket backend failed ({exc}); "
                    "keeping the static DEFAULT_LINK_COSTS entries",
                    RuntimeWarning,
                    stacklevel=2,
                )
            else:
                link_costs = dict(DEFAULT_LINK_COSTS)
                link_costs["socket"] = per_rank[0]

        network = AlphaBetaGamma(alpha=1.0e-7, beta=beta, gamma=gamma, name=name)
        return cls(
            network=network,
            dense_mm_efficiency=1.0,
            kernel_speedups=kernel_speedups,
            link_costs=link_costs,
        )


def _gemm_probe(comm, size: int, repeats: int, seed: int) -> float:
    """Best-of-``repeats`` seconds for one ``size × size`` GEMM on this rank.

    Runs standalone (``comm=None``) or as an SPMD program: with a
    communicator the ranks align on a barrier after warm-up so the timed
    GEMMs genuinely contend, and each rank draws its data from the package's
    deterministic per-rank seeding.
    """
    import numpy as np

    from repro.util.seeding import per_rank_seed

    rank = comm.rank if comm is not None else 0
    rng = np.random.default_rng(per_rank_seed(seed, rank))
    x = rng.standard_normal((size, size))
    y = rng.standard_normal((size, size))
    x @ y  # warm-up: BLAS thread pools, page faults
    if comm is not None:
        comm.barrier()
    return min(_timed(lambda: x @ y) for _ in range(repeats))


def _link_probe(comm, repeats: int):
    """2-rank ping/stream probe measuring the socket wire's ``(alpha, beta)``.

    Rank 0 measures and returns the pair; rank 1 echoes and returns ``None``.

    * *Ping*: ``n_pings`` round-trips of a 1-word message, best-of-``repeats``;
      half the per-message round-trip is the frame latency ``alpha``
      (connect, frame encode/decode, kernel crossing).
    * *Stream*: a 1 MiB array one way plus a 1-word ack, best-of-``repeats``;
      the time beyond one round-trip divided by the word count is ``beta``.
    """
    import numpy as np

    small = np.zeros(1)
    big = np.zeros(131072)  # 1 MiB of float64
    n_pings = 20
    comm.barrier()
    if comm.rank == 0:
        def ping():
            for _ in range(n_pings):
                comm.send(small, dest=1, tag=1)
                comm.recv(source=1, tag=2)

        def stream():
            comm.send(big, dest=1, tag=3)
            comm.recv(source=1, tag=4)

        ping()  # warm-up: buffers, reader-thread scheduling
        rtt = min(_timed(ping) for _ in range(repeats)) / n_pings
        stream()  # warm-up
        t_stream = min(_timed(stream) for _ in range(repeats))
        alpha = rtt / 2.0
        beta = max(t_stream - rtt, 1e-12) / big.size
        return (float(alpha), float(beta))
    for _ in range(repeats + 1):
        for _ in range(n_pings):
            comm.recv(source=0, tag=1)
            comm.send(small, dest=0, tag=2)
    for _ in range(repeats + 1):
        comm.recv(source=0, tag=3)
        comm.send(small, dest=0, tag=4)
    return None


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def edison_machine(**overrides) -> MachineSpec:
    """The default Edison-calibrated machine model."""
    return MachineSpec(network=EDISON).with_options(**overrides) if overrides else MachineSpec(network=EDISON)


def laptop_machine(**overrides) -> MachineSpec:
    """A communication-friendly laptop-like preset (examples, what-if plans)."""
    spec = MachineSpec(network=LAPTOP)
    return spec.with_options(**overrides) if overrides else spec
