"""The benchmark-baseline writer: the repo's recorded performance trajectory.

The paper's evaluation (§6, Figure 3) is a grid of *measured* panels —
algorithm × processor count × dataset — and until now this reproduction only
ever verified the communication *structure* of those runs.  With the
``"process"`` backend the ranks genuinely run concurrently, so wall-clock
speedups are finally observable; this module measures them and writes the
result as a ``BENCH_*.json`` artifact:

* :func:`run_baseline` runs Figure-3-style panels (a dense DSYN-like and a
  sparse SSYN-like synthetic problem) for ``variant × backend × grid`` and
  records wall seconds, iterations/second and speedups — each parallel
  configuration against the sequential reference, and ``process`` against
  ``thread`` (the headline number: what escaping the GIL buys);
* :func:`write_baseline` serializes that payload as ``BENCH_<scale>_p<p>.json``;
* :func:`check_baseline` compares a fresh measurement against a committed
  baseline's ``floors`` and reports regressions — CI runs it on every push,
  skipping (loudly) any floor whose ``requires_cpus`` exceeds the host, so a
  1-core laptop doesn't fail a 4-rank speedup gate it cannot physically meet.

Scales are deliberately small (seconds, not minutes): the point is a
*trajectory* — a number CI re-measures on every change — not a paper-scale
reproduction, which stays in ``benchmarks/``.
"""

from __future__ import annotations

import json
import platform
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.comm.backends.base import available_cpus

#: Problem sizes per scale.  Chosen so the *tiny* dense panel is dominated by
#: the pure-Python BPP solves (the GIL-bound work the process backend
#: parallelizes) rather than by fork/shared-memory setup: at
#: ``1024 × 768, k = 12`` the NLS task is ~60% of per-rank time.
SCALES: Dict[str, Dict[str, Dict[str, float]]] = {
    "tiny": {
        "dense": {"m": 1024, "n": 768, "k": 12, "iters": 20, "density": 1.0},
        "sparse": {"m": 1500, "n": 1000, "k": 10, "iters": 8, "density": 0.05},
    },
    "small": {
        "dense": {"m": 2048, "n": 1536, "k": 16, "iters": 12, "density": 1.0},
        "sparse": {"m": 4000, "n": 3000, "k": 12, "iters": 10, "density": 0.02},
    },
}

SCHEMA_VERSION = 1


def _panel_matrix(panel: str, spec: Dict[str, float], seed: int):
    if panel == "dense":
        from repro.data.lowrank import planted_lowrank

        return planted_lowrank(
            int(spec["m"]), int(spec["n"]), int(spec["k"]), seed=seed, noise_std=0.05
        )
    import scipy.sparse as sp

    return sp.random(
        int(spec["m"]), int(spec["n"]), density=float(spec["density"]),
        random_state=seed, format="csr",
    )


def run_kernel_panel(scale: str = "tiny", repeats: int = 3, seed: int = 7) -> dict:
    """Microbenchmark every available BPP kernel on one NLS problem.

    The problem is the dense panel's W-update: ``gram = H Hᵀ`` (k × k) and
    ``rhs = H Aᵀ`` (k × m), i.e. ``m`` right-hand-side columns through one
    solver call — exactly the shape the batched kernel's passive-set grouping
    is built for.  Each kernel gets one warm-up solve (numba's JIT
    compilation happens there, outside the timing) and is then timed
    best-of-``repeats``.  Speedups are relative to the ``scalar`` kernel.
    """
    import numpy as np

    from repro.nls import available_kernels, make_solver

    spec = SCALES[scale]["dense"]
    k, m, n = int(spec["k"]), int(spec["m"]), int(spec["n"])
    A = np.asarray(_panel_matrix("dense", spec, seed))
    rng = np.random.default_rng(seed)
    H = np.abs(rng.standard_normal((k, n)))
    gram_h = (H @ H.T + (H @ H.T).T) * 0.5
    rhs = H @ A.T                                  # k × m: one column per row of W

    rows: List[dict] = []
    times: Dict[str, float] = {}
    for kernel in available_kernels():
        solver = make_solver("bpp", kernel=kernel)
        solver.solve(gram_h, rhs)                  # warm-up (JIT compile for numba)
        times[kernel] = min(
            _timed(lambda: solver.solve(gram_h, rhs)) for _ in range(max(1, repeats))
        )
    for kernel, wall in times.items():
        rows.append({
            "kernel": kernel,
            "wall_s": wall,
            "columns_per_s": m / wall,
            "speedup_vs_scalar": times["scalar"] / wall,
        })
    return {"panel": "dense", "k": k, "columns": m, "repeats": repeats, "rows": rows}


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_overlap_panel(
    scale: str = "tiny",
    p: int = 4,
    backends: Sequence[str] = ("thread", "process"),
    variant: str = "hpc2d",
    repeats: int = 2,
    seed: int = 7,
) -> dict:
    """Time the two completion modes of the parallel loop on the dense panel.

    For each backend the dense panel runs twice — ``overlap=False`` (every
    collective completes at its issue point: strictly blocking) and the
    default (collectives complete in the background, overlapping compute) —
    and the ratio ``blocking / default`` is reported per backend as
    ``pipelined_vs_blocking``.  The committed baseline floors
    ``dense:process_pipelined_vs_blocking``; both runs execute the same
    program and produce byte-identical factors, so any ratio change is pure
    overlap performance.  Each row also records the profiler's exposed vs.
    hidden communication seconds per mode — the split the BENCH artifact
    exports for the overlap trajectory.
    """
    spec = SCALES[scale]["dense"]
    k, iters = int(spec["k"]), int(spec["iters"])
    A = _panel_matrix("dense", spec, seed)
    rows: List[dict] = []
    for backend in backends:
        walls: Dict[str, float] = {}
        comm_split: Dict[str, Dict[str, float]] = {}
        for name, overlap in (("blocking", False), ("default", True)):
            wall, res = _timed_fit(
                A, k, iters, seed, repeats,
                variant=variant, n_ranks=p, backend=backend, overlap=overlap,
            )
            walls[name] = wall
            comm_split[name] = {
                "exposed_comm_s": res.breakdown.exposed_communication,
                "hidden_comm_s": res.breakdown.hidden_communication,
            }
        rows.append({
            "panel": "dense", "variant": variant, "backend": backend, "p": p,
            "wall_blocking_s": walls["blocking"],
            "wall_default_s": walls["default"],
            "pipelined_vs_blocking": walls["blocking"] / walls["default"],
            "comm_split": comm_split,
        })
    return {
        "panel": "dense", "variant": variant, "p": p,
        "k": k, "iters": iters, "repeats": repeats, "rows": rows,
    }


def _timed_fit(A, k: int, iters: int, seed: int, repeats: int, **kwargs) -> Tuple[float, object]:
    """Best-of-``repeats`` wall seconds for one full ``fit`` (and its result)."""
    from repro.core.api import fit

    best, result = float("inf"), None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        res = fit(A, k, max_iters=iters, seed=seed, **kwargs)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, result = elapsed, res
    return best, result


def run_baseline(
    scale: str = "tiny",
    p: int = 4,
    backends: Sequence[str] = ("thread", "process"),
    variant: str = "hpc2d",
    panels: Sequence[str] = ("dense", "sparse"),
    repeats: int = 2,
    seed: int = 7,
    kernels: bool = True,
    overlap: bool = True,
    serve: bool = True,
) -> dict:
    """Measure the Figure-3-style panels and return the baseline payload.

    Every panel runs the sequential reference once (the speedup denominator)
    and then ``variant`` on ``p`` ranks once per backend.  The headline
    ``speedups`` map carries ``<panel>:process_vs_thread`` whenever both
    backends were measured — the number the committed baseline puts a floor
    under.  With ``kernels`` (the default) the BPP kernel microbenchmark
    (:func:`run_kernel_panel`) is appended under a separate ``"kernels"``
    key, contributing ``bpp_<kernel>_vs_scalar`` speedups — the committed
    baseline also floors ``bpp_batched_vs_scalar``.  With ``overlap`` (the
    default) the pipelined-vs-blocking panel (:func:`run_overlap_panel`) is
    appended under ``"overlap"``, contributing
    ``dense:<backend>_pipelined_vs_blocking`` speedups.  With ``serve`` (the
    default) the serving load-test panel
    (:func:`~repro.bench.serve_panel.run_serve_panel`) is appended under
    ``"serve"``, contributing ``serve:<kernel>_vs_scalar`` hot-path speedups —
    the committed baseline floors ``serve:batched_vs_scalar``.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; known: {sorted(SCALES)}")

    payload: dict = {
        "schema": SCHEMA_VERSION,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scale": scale,
        "p": p,
        "variant": variant,
        "repeats": repeats,
        "cpu_count": available_cpus(),
        "python": platform.python_version(),
        "panels": [],
        "speedups": {},
    }
    for panel in panels:
        spec = SCALES[scale][panel]
        k, iters = int(spec["k"]), int(spec["iters"])
        A = _panel_matrix(panel, spec, seed)
        seq_wall, _ = _timed_fit(A, k, iters, seed, repeats, variant="sequential")
        rows: List[dict] = [{
            "variant": "sequential", "backend": None, "grid": None, "p": 1,
            "wall_s": seq_wall, "iters_per_s": iters / seq_wall,
            "speedup_vs_sequential": 1.0,
        }]
        by_backend: Dict[str, float] = {}
        for backend in backends:
            wall, res = _timed_fit(
                A, k, iters, seed, repeats,
                variant=variant, n_ranks=p, backend=backend,
            )
            by_backend[backend] = wall
            rows.append({
                "variant": variant, "backend": backend,
                "grid": list(res.grid_shape) if res.grid_shape else None, "p": p,
                "wall_s": wall, "iters_per_s": iters / wall,
                "speedup_vs_sequential": seq_wall / wall,
            })
        payload["panels"].append({
            "panel": panel,
            "m": int(spec["m"]), "n": int(spec["n"]), "k": k, "iters": iters,
            "density": float(spec["density"]),
            "rows": rows,
        })
        if "thread" in by_backend and "process" in by_backend:
            payload["speedups"][f"{panel}:process_vs_thread"] = (
                by_backend["thread"] / by_backend["process"]
            )
        for backend, wall in by_backend.items():
            payload["speedups"][f"{panel}:{backend}_vs_sequential"] = seq_wall / wall
    if kernels:
        kernel_panel = run_kernel_panel(scale=scale, repeats=max(2, repeats), seed=seed)
        payload["kernels"] = kernel_panel
        for row in kernel_panel["rows"]:
            if row["kernel"] != "scalar":
                payload["speedups"][f"bpp_{row['kernel']}_vs_scalar"] = (
                    row["speedup_vs_scalar"]
                )
    if overlap:
        overlap_panel = run_overlap_panel(
            scale=scale, p=p, backends=backends, variant=variant,
            repeats=repeats, seed=seed,
        )
        payload["overlap"] = overlap_panel
        for row in overlap_panel["rows"]:
            payload["speedups"][
                f"dense:{row['backend']}_pipelined_vs_blocking"
            ] = row["pipelined_vs_blocking"]
    if serve:
        from repro.bench.serve_panel import run_serve_panel

        serve_panel = run_serve_panel(
            scale=scale, repeats=max(2, repeats), seed=seed
        )
        payload["serve"] = serve_panel
        for row in serve_panel["rows"]:
            if row["kernel"] != "scalar":
                payload["speedups"][f"serve:{row['kernel']}_vs_scalar"] = (
                    row["speedup_vs_scalar"]
                )
    return payload


def write_baseline(payload: dict, out_dir, label: Optional[str] = None) -> Path:
    """Write ``payload`` as ``BENCH_<label>.json`` under ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    label = label or f"{payload['scale']}_p{payload['p']}"
    path = out_dir / f"BENCH_{label}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path) -> dict:
    return json.loads(Path(path).read_text())


def check_baseline(measured: dict, baseline: dict) -> Tuple[List[str], List[str]]:
    """Compare ``measured`` speedups against ``baseline['floors']``.

    Returns ``(failures, skipped)``: ``failures`` are human-readable
    regression descriptions (empty = pass); ``skipped`` explains every floor
    that was not enforced because the measuring host lacks the CPUs the
    floor presumes (``requires_cpus``) — hardware-gated, never silently.
    """
    failures: List[str] = []
    skipped: List[str] = []
    cpus = int(measured.get("cpu_count") or 1)
    for floor in baseline.get("floors", []):
        metric, minimum = floor["metric"], float(floor["min"])
        requires = int(floor.get("requires_cpus", 1))
        if cpus < requires:
            skipped.append(
                f"{metric} >= {minimum:g} not enforced: needs {requires} CPUs, "
                f"host has {cpus}"
            )
            continue
        value = measured.get("speedups", {}).get(metric)
        if value is None:
            failures.append(f"{metric} missing from the measured payload")
        elif value < minimum:
            failures.append(
                f"{metric} regressed: measured {value:.3g}, baseline floor {minimum:g}"
            )
    return failures, skipped


def render_baseline(payload: dict) -> str:
    """A compact human-readable table of the measured panels."""
    lines = [
        f"bench baseline: scale={payload['scale']} p={payload['p']} "
        f"cpus={payload['cpu_count']} python={payload['python']}",
        f"{'panel':>7}  {'variant':>10}  {'backend':>8}  {'grid':>6}  "
        f"{'wall s':>8}  {'iters/s':>8}  {'speedup':>8}",
    ]
    for panel in payload["panels"]:
        for row in panel["rows"]:
            grid = "x".join(map(str, row["grid"])) if row["grid"] else "-"
            lines.append(
                f"{panel['panel']:>7}  {row['variant']:>10}  "
                f"{row['backend'] or '-':>8}  {grid:>6}  {row['wall_s']:>8.3f}  "
                f"{row['iters_per_s']:>8.2f}  {row['speedup_vs_sequential']:>8.2f}"
            )
    kernel_panel = payload.get("kernels")
    if kernel_panel:
        lines.append(
            f"BPP kernels (dense W-update, k={kernel_panel['k']}, "
            f"columns={kernel_panel['columns']}):"
        )
        for row in kernel_panel["rows"]:
            lines.append(
                f"{'':>7}  {row['kernel']:>10}  {'-':>8}  {'-':>6}  "
                f"{row['wall_s']:>8.3f}  {row['columns_per_s']:>8.0f}  "
                f"{row['speedup_vs_scalar']:>8.2f}"
            )
    overlap_panel = payload.get("overlap")
    if overlap_panel:
        lines.append(
            f"overlap (blocking / default, dense, "
            f"{overlap_panel['variant']} p={overlap_panel['p']}):"
        )
        lines.append(
            f"{'':>7}  {'backend':>10}  {'block s':>8}  {'deflt s':>8}  "
            f"{'blk/dflt':>8}  {'exposed s':>9}  {'hidden s':>8}"
        )
        for row in overlap_panel["rows"]:
            split = row.get("comm_split", {}).get("default", {})
            lines.append(
                f"{'':>7}  {row['backend']:>10}  "
                f"{row['wall_blocking_s']:>8.3f}  "
                f"{row['wall_default_s']:>8.3f}  "
                f"{row['pipelined_vs_blocking']:>8.2f}  "
                f"{split.get('exposed_comm_s', float('nan')):>9.3f}  "
                f"{split.get('hidden_comm_s', float('nan')):>8.3f}"
            )
    serve_panel = payload.get("serve")
    if serve_panel:
        lines.append(
            f"serve (micro-batched projection, m={serve_panel['m']} "
            f"k={serve_panel['k']}, {serve_panel['clients']} clients x "
            f"{serve_panel['columns_per_request']} cols/request, "
            f"batch={serve_panel['batch_columns']}):"
        )
        lines.append(
            f"{'':>7}  {'kernel':>10}  {'hot cols/s':>10}  {'req/s':>8}  "
            f"{'p50 ms':>8}  {'p99 ms':>8}  {'speedup':>8}"
        )
        for row in serve_panel["rows"]:
            lines.append(
                f"{'':>7}  {row['kernel']:>10}  "
                f"{row['hotpath_columns_per_s']:>10.0f}  "
                f"{row['requests_per_s']:>8.0f}  "
                f"{row['latency_p50_s'] * 1e3:>8.2f}  "
                f"{row['latency_p99_s'] * 1e3:>8.2f}  "
                f"{row['speedup_vs_scalar']:>8.2f}"
            )
    for metric, value in sorted(payload["speedups"].items()):
        lines.append(f"  {metric} = {value:.3f}")
    return "\n".join(lines)
