"""Fixed-shape micro-benchmarks of each layer, called through its public functions.

Shapes are those of the workloads (one rank's block of ``dense_mm`` and
``sparse_wire``, the ``dense_bpp`` H-update, a serving micro-batch), so a
probe's number is the layer's speed *at the size the workloads use it*.
Every probe is the same in every traced run, whatever ``--workload`` is.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Dict

from harness import workloads
from harness.hostinfo import llc_bytes, ram_bytes
from harness.spans import SpanRecorder
from harness.stats import median_time

BACKENDS = ("thread", "process", "socket")
WIRE_BACKENDS = ("process", "socket")   # ranks in separate processes
COLLECTIVES = ("allgatherv", "reduce_scatter", "allreduce")
LARGE_BYTES = 8 << 20
GRAM_K = 32


# ---------------------------------------------------------------------------
# comm: SPMD programs (module-level so every backend can run them)
# ---------------------------------------------------------------------------

def _noop(comm) -> int:
    return comm.rank


def _sync_median(comm, fn, repeats: int) -> float:
    """Median seconds of ``fn`` with a barrier before every sample."""
    fn()
    samples = []
    for _ in range(repeats):
        comm.barrier()
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _comm_program(comm, large_words: int, reps_small: int, reps_large: int, wire: bool) -> dict:
    """Point-to-point, barrier, collectives and overlap on a 2-rank world."""
    import numpy as np

    rank, peer = comm.rank, 1 - comm.rank
    out: Dict[str, float] = {}
    small = np.zeros(1)
    large = np.ones(large_words)

    def pingpong(buf, tag):
        if rank == 0:
            comm.send(buf, dest=peer, tag=tag)
            comm.recv(source=peer, tag=tag)
        else:
            comm.recv(source=peer, tag=tag)
            comm.send(buf, dest=peer, tag=tag)

    rtt_small = _sync_median(comm, lambda: pingpong(small, 1), reps_small)
    rtt_large = _sync_median(comm, lambda: pingpong(large, 2), reps_large)
    out["p2p_lat_us"] = rtt_small / 2 * 1e6
    out["p2p_bw_mbs"] = large.nbytes / (rtt_large / 2) / 1e6
    out["barrier_us"] = _sync_median(comm, comm.barrier, reps_small) * 1e6
    if not wire:
        return out

    # Collectives: small is the k x k Gram every iteration all-reduces,
    # large the factor-block size the all-gathers and reduce-scatters move.
    gram = np.ones((GRAM_K, GRAM_K))
    half = np.ones(large_words // 2)
    calls = {
        "allgatherv": (lambda: comm.allgatherv(gram[: GRAM_K // 2]), lambda: comm.allgatherv(half)),
        "reduce_scatter": (lambda: comm.reduce_scatter(gram), lambda: comm.reduce_scatter(large)),
        "allreduce": (lambda: comm.allreduce(gram), lambda: comm.allreduce(large)),
    }
    for op, (small_call, large_call) in calls.items():
        out[f"{op}.small_us"] = _sync_median(comm, small_call, reps_small) * 1e6
        out[f"{op}.large_ms"] = _sync_median(comm, large_call, reps_large) * 1e3

    # Nonblocking: how much of a large all-gather hides behind a GEMM of the
    # same duration, and what issuing through the helper thread costs.
    comm.ensure_nonblocking()
    try:
        t_comm = out["allgatherv.large_ms"] / 1e3
        x = np.ones((256, 256))
        t_gemm = median_time(lambda: x @ x, 5)
        gemms = max(1, round(t_comm / t_gemm))

        def compute():
            for _ in range(gemms):
                x @ x

        def blocked():
            compute()
            comm.allgatherv(half)

        def pipelined():
            handle = comm.iallgatherv(half)
            compute()
            handle.wait()

        t_block = _sync_median(comm, blocked, reps_large)
        t_pipe = _sync_median(comm, pipelined, reps_large)
        out["overlap_eff"] = (t_block - t_pipe) / t_comm
        t_issue = _sync_median(comm, lambda: comm.iallreduce(small).wait(), reps_small)
        t_plain = _sync_median(comm, lambda: comm.allreduce(small), reps_small)
        out["issue_us"] = (t_issue - t_plain) * 1e6
    finally:
        comm.shutdown_nonblocking()
    return out


def _dist_program(comm, A) -> float:
    from repro.comm import ProcessGrid
    from repro.dist import DistMatrix2D

    grid = ProcessGrid(comm, comm.size, 1)
    comm.barrier()
    t0 = time.perf_counter()
    DistMatrix2D.from_global(grid, A)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# the probe set
# ---------------------------------------------------------------------------

def run(spec: dict) -> dict:
    import numpy as np

    smoke, seed = spec["smoke"], spec["seed"]
    rec = SpanRecorder("probes", prefix=spec["tag"], enabled=True)
    metrics: Dict[str, float] = {}
    notes: Dict[str, object] = {}
    rng = np.random.default_rng(seed)
    div = 8 if smoke else 1

    _comm_probes(metrics, rec, smoke)
    _local_ops_probes(metrics, notes, rec, rng, seed, div)
    _nls_probes(metrics, rec, rng, seed, div)
    _dist_probes(metrics, rec, rng, seed, div)
    _serve_probes(metrics, rec, rng, Path(spec["work_dir"]), div)
    return {"metrics": metrics, "notes": notes, "spans": rec.spans}


def _comm_probes(metrics: dict, rec: SpanRecorder, smoke: bool) -> None:
    from repro.comm import AlphaBetaGamma, CollectiveCost, run_spmd

    import numpy as np

    large_words = (LARGE_BYTES >> (6 if smoke else 0)) // 8
    reps_small, reps_large = (20, 3) if smoke else (200, 7)
    # gamma of §2.3's reduction term: seconds per element of an in-cache add.
    a, b = np.ones(1 << 16), np.ones(1 << 16)
    gamma = median_time(lambda: np.add(a, b, out=a), 20) / a.size
    for backend in BACKENDS:
        wire = backend in WIRE_BACKENDS
        prefix = f"comm.backends.{backend}"
        with rec.span("comm.backends", f"{backend}.spawn"):
            metrics[f"{prefix}.spawn_ms"] = median_time(
                lambda: run_spmd(2, _noop, backend=backend), 2 if smoke else 3
            ) * 1e3
        with rec.span("comm.collectives" if wire else "comm.backends", f"{backend}.program"):
            got = run_spmd(
                2, _comm_program, large_words, reps_small, reps_large, wire, backend=backend
            )[0]
        for key in ("p2p_lat_us", "p2p_bw_mbs", "barrier_us"):
            metrics[f"{prefix}.{key}"] = got[key]
        if not wire:
            continue
        # §2.3 closed forms priced with this backend's measured link.
        beta = 8.0 / (got["p2p_bw_mbs"] * 1e6)
        model = CollectiveCost(AlphaBetaGamma(got["p2p_lat_us"] / 1e6, beta, gamma, name=backend))
        predicted = {
            "allgatherv": model.all_gather(2, large_words),
            "reduce_scatter": model.reduce_scatter(2, large_words),
            "allreduce": model.all_reduce(2, large_words),
        }
        for op in COLLECTIVES:
            base = f"comm.collectives.{backend}.{op}"
            metrics[f"{base}.small_us"] = got[f"{op}.small_us"]
            metrics[f"{base}.large_ms"] = got[f"{op}.large_ms"]
            metrics[f"{base}.large_over_model"] = got[f"{op}.large_ms"] / 1e3 / predicted[op]
        metrics[f"comm.nonblocking.{backend}.overlap_eff"] = got["overlap_eff"]
        metrics[f"comm.nonblocking.{backend}.issue_us"] = got["issue_us"]


def _local_ops_probes(metrics, notes, rec, rng, seed: int, div: int) -> None:
    import numpy as np

    from repro.core.local_ops import gram, matmul_a_ht, matmul_flops, matmul_wt_a
    from repro.data import sparse_synthetic

    k = 32
    # The machine's two ceilings, measured in this run.
    with rec.span("host", "gemm_peak"):
        n = 1024 // (2 if div > 1 else 1)
        x = rng.random((n, n))
        peak = 2.0 * n ** 3 / median_time(lambda: x @ x, 3) / 1e9
    with rec.span("host", "mem_bw"):
        llc = llc_bytes()
        # >= 4 x LLC per array so the copy streams from memory; capped at an
        # eighth of RAM (two arrays live at once) and shrunk under --smoke.
        want = max(4 * llc, 64 << 20) // (div * div)
        size = int(min(want, max(ram_bytes() // 8, 32 << 20)))
        src = np.ones(size // 8)
        dst = np.empty_like(src)
        bw = 2.0 * src.nbytes / median_time(lambda: np.copyto(dst, src), 3) / 1e9
        notes["mem_bw_array_bytes"] = int(src.nbytes)
        notes["llc_bytes"] = int(llc)
        del src, dst
    metrics["host.gemm_peak_gflops"] = peak
    metrics["host.mem_bw_gbs"] = bw

    # One rank's block of dense_mm (p = 2, grid 2 x 1) ...
    md, nd = 3000 // div, 4000 // div
    A = rng.random((md, nd))
    Ht, W = rng.random((nd, k)), rng.random((md, k))
    flops = matmul_flops(A, k)
    with rec.span("core.local_ops", "dense"):
        t_aht = median_time(lambda: matmul_a_ht(A, Ht), 5)
        t_wta = median_time(lambda: matmul_wt_a(W, A), 5)
    metrics["core.local_ops.dense_a_ht_gflops"] = flops / t_aht / 1e9
    metrics["core.local_ops.dense_wt_a_gflops"] = flops / t_wta / 1e9
    # Bytes are computed from array sizes (operands once, result once): cache
    # misses are not counted.
    dense_bytes = A.nbytes + Ht.nbytes + md * k * 8
    roof = min(peak, bw * flops / dense_bytes)
    metrics["core.local_ops.dense_roofline_frac"] = metrics["core.local_ops.dense_a_ht_gflops"] / roof
    del A

    # ... and of sparse_wire.
    ms, ns = 60000 // div, 80000 // div
    S = sparse_synthetic(ms, ns, density=1e-4 * div, seed=seed)
    Hs, Ws = rng.random((ns, k)), rng.random((ms, k))
    sflops = matmul_flops(S, k)
    with rec.span("core.local_ops", "sparse"):
        t_saht = median_time(lambda: matmul_a_ht(S, Hs), 5)
        t_swta = median_time(lambda: matmul_wt_a(Ws, S), 5)
        metrics["core.local_ops.gram_ms"] = median_time(lambda: gram(Ws, True), 5) * 1e3
    metrics["core.local_ops.sparse_a_ht_gflops"] = sflops / t_saht / 1e9
    metrics["core.local_ops.sparse_wt_a_gflops"] = sflops / t_swta / 1e9
    sparse_bytes = S.data.nbytes + S.indices.nbytes + S.indptr.nbytes + Hs.nbytes + ms * k * 8
    metrics["core.local_ops.sparse_ops_per_byte"] = sflops / sparse_bytes


def _nls_probes(metrics, rec, rng, seed: int, div: int) -> None:
    import numpy as np

    from repro import fit
    from repro.data import planted_lowrank
    from repro.nls import available_kernels, make_solver

    # Fit shape: the dense_bpp H-update two iterations into a fit (k = 16, one
    # column per column of A).  That is where BPP pivots: at this state the
    # W-update settles in one or two exchanges, the H-update takes six.
    k = 16
    A = planted_lowrank(2048 // div, 1536 // div, k, seed=seed, noise_std=0.05)
    W = fit(A, k, max_iters=2, seed=seed).W
    gram_fit, rhs_fit, cols = W.T @ W, W.T @ A, A.shape[1]
    # Serve shape: one micro-batch of in-model columns against a fixed basis.
    Wb = np.abs(rng.standard_normal((1024 // div, k)))
    gram_srv = Wb.T @ Wb
    batches = [Wb.T @ workloads.in_model_columns(Wb, 16, rng) for _ in range(32)]
    for kernel in available_kernels():
        with rec.span("nls", f"bpp.{kernel}"):
            solver = make_solver("bpp", kernel=kernel)
            t_fit = median_time(lambda: solver.solve(gram_fit, rhs_fit), 3)
            if kernel == "scalar":
                state = solver.last_state
                metrics["nls.bpp.iterations"] = float(state.iterations)
                metrics["nls.bpp.chol_flops"] = float(state.extra["cholesky_flops"])
            cached = make_solver("bpp", kernel=kernel, persistent_cache=True)

            def serve_round():
                for rhs in batches:
                    cached.solve(gram_srv, rhs)

            t_srv = median_time(serve_round, 3)
        metrics[f"nls.bpp.{kernel}.fit_cols_per_s"] = cols / t_fit
        metrics[f"nls.bpp.{kernel}.serve_cols_per_s"] = 16 * len(batches) / t_srv

    # Element-wise solvers at the sparse_wire H-update size.
    k2, c2 = 32, 80000 // div
    F = rng.random((k2, 4 * k2))
    gram2, rhs2, x0 = F @ F.T, rng.random((k2, c2)), rng.random((k2, c2))
    for name in ("hals", "mu"):
        with rec.span("nls", name):
            solver = make_solver(name)
            metrics[f"nls.{name}.cols_per_s"] = c2 / median_time(
                lambda: solver.solve(gram2, rhs2, x0=x0), 3
            )


def _dist_probes(metrics, rec, rng, seed: int, div: int) -> None:
    from repro.comm import run_spmd
    from repro.data import sparse_synthetic

    dense = rng.random((6000 // div, 4000 // div))
    sparse = sparse_synthetic(120000 // div, 80000 // div, density=1e-4 * div, seed=seed)
    for name, A in (("dense", dense), ("sparse", sparse)):
        with rec.span("dist", f"from_global_{name}"):
            times = [max(run_spmd(2, _dist_program, A, backend="thread")) for _ in range(3)]
        metrics[f"dist.from_global_{name}_ms"] = statistics.median(times) * 1e3


def _serve_probes(metrics, rec, rng, work_dir: Path, div: int) -> None:
    import numpy as np

    from repro.nls import make_solver
    from repro.serve import ModelStore, project_blocks

    k, m = 16, 1024 // div
    W = np.abs(rng.standard_normal((m, k)))
    gram_w = W.T @ W
    # Two 8-column requests coalesced per call, as two closed-loop clients give.
    rounds = [[workloads.in_model_columns(W, 8, rng) for _ in range(2)] for _ in range(32)]
    solver = make_solver("bpp", kernel="auto", persistent_cache=True)

    def serve_round():
        for blocks in rounds:
            project_blocks(W, blocks, gram=gram_w, solver=solver)

    with rec.span("serve", "project_blocks"):
        t = median_time(serve_round, 3)
    metrics["serve.project_blocks_cols_per_s"] = 16 * len(rounds) / t

    path = workloads.basis_model(W).save(work_dir / "probe_model.npz")
    try:
        with rec.span("serve", "store_load"):
            metrics["serve.store_load_ms"] = median_time(lambda: ModelStore().load(path), 5) * 1e3
    finally:
        path.unlink(missing_ok=True)
