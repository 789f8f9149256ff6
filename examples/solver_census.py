#!/usr/bin/env python3
"""Solver census: how long each registered NLS solver takes to reach BPP's error.

*Time-to-target* is the wall seconds a sequential fit takes to first reach
BPP's final relative error at BPP's iteration count.  For every input and
seed, BPP runs its iteration count first and sets the target and the cap
(5× its own time); every other registered solver then runs until its
relative error is within ``RTOL`` of the target or the cap is spent,
whichever comes first.  Each of three seeds is run in two passes, the second
with the other solvers in reverse order.

The five inputs are the three fit workloads of ``benchmarks/layered`` (their
shapes, generators, k and iteration counts) and two small probes.  The
printed table, with host, seeds, passes and cap, is what
``docs/ARCHITECTURE.md`` ("Solver census") records.

Run with::

    python examples/solver_census.py              # full census (~20 min on 1 core)
    python examples/solver_census.py --smoke      # every shape / 32, one seed, one pass
"""

from __future__ import annotations

import os

# One BLAS thread, as the benchmark's ranks run; an explicit setting in the
# environment wins.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from repro import fit  # noqa: E402
from repro.core.observers import IterationObserver  # noqa: E402
from repro.data import planted_lowrank, sparse_synthetic  # noqa: E402
from repro.nls import available_solvers  # noqa: E402
from repro.nls.bpp import BlockPrincipalPivoting  # noqa: E402

#: A solver has reached the target when its error is at most target·(1 + RTOL).
RTOL = 1e-6
#: A solver stops when it has run this many times BPP's wall time.
CAP = 5.0
#: Input and fit seeds, each run in this many passes (the second reverses
#: the order of the solvers after BPP).
SEEDS = (3, 7, 11)
PASSES = 2


@dataclass(frozen=True)
class Input:
    name: str
    kind: str      # "dense" (planted low rank, noise 0.05) or "sparse" (Erdős–Rényi)
    m: int
    n: int
    k: int
    iters: int     # BPP's iteration count, which fixes the target
    density: float = 0.0

    def generate(self, seed: int, divisor: int):
        m, n = self.m // divisor, self.n // divisor
        if self.kind == "dense":
            return planted_lowrank(m, n, self.k, seed=seed, noise_std=0.05)
        # Keep nnz per row constant when shrinking, as the benchmark's --smoke does.
        return sparse_synthetic(m, n, density=self.density * divisor, seed=seed)

    def label(self, divisor: int) -> str:
        shape = f"{self.m // divisor}×{self.n // divisor}"
        density = f", {self.density * divisor:g}" if self.kind == "sparse" else ""
        return f"{self.name} {shape}{density}, k {self.k}"


INPUTS = (
    Input("dense_bpp", "dense", 2048, 1536, 16, iters=20),
    Input("dense_mm", "dense", 6000, 4000, 32, iters=12),
    Input("sparse_wire", "sparse", 120000, 80000, 32, iters=6, density=1e-4),
    Input("probe_dense", "dense", 1200, 800, 16, iters=30),
    Input("probe_sparse", "sparse", 3000, 2000, 16, iters=30, density=0.01),
)


class _Trace(IterationObserver):
    """Wall seconds since construction and relative error after each iteration;
    asks the loop to stop at ``target`` or after ``cap`` seconds."""

    def __init__(self, target: float = -math.inf, cap: float = math.inf) -> None:
        self.target, self.cap = target, cap
        self.points: list[tuple[float, float]] = []
        self.t0 = time.perf_counter()

    def on_iteration(self, event) -> bool:
        elapsed = time.perf_counter() - self.t0
        self.points.append((elapsed, event.relative_error))
        return event.relative_error <= self.target or elapsed >= self.cap

    def first_reach(self, target: float) -> float | None:
        return next((t for t, err in self.points if err <= target), None)


def _run(A, spec: Input, solver: str, seed: int, **observe) -> _Trace:
    trace = _Trace(**observe)
    iters = spec.iters if solver == "bpp" else 10**6
    fit(A, spec.k, variant="sequential", solver=solver, max_iters=iters, seed=seed,
        observers=[trace])
    return trace


@contextmanager
def _pivot_rounds():
    """Collects ``last_state.iterations`` (pivot rounds) of every BPP solve."""
    rounds: list[int] = []
    solve = BlockPrincipalPivoting.solve

    def counted(self, *args, **kwargs):
        x = solve(self, *args, **kwargs)
        rounds.append(self.last_state.iterations)
        return x

    BlockPrincipalPivoting.solve = counted
    try:
        yield rounds
    finally:
        BlockPrincipalPivoting.solve = solve


def census(inputs, seeds, passes: int, divisor: int, log=print):
    solvers = available_solvers()
    others = [s for s in solvers if s != "bpp"]
    for solver in solvers:  # pay first-call imports outside the timed runs
        for warm in (planted_lowrank(40, 30, 4, seed=0), sparse_synthetic(40, 30, 0.2, seed=0)):
            fit(warm, 4, variant="sequential", solver=solver, max_iters=2, seed=0)
    rows = []
    for spec in inputs:
        cells = {s: [] for s in solvers}   # (seconds or None, best error, iterations)
        targets, pivots = [], []
        for seed in seeds:
            A = spec.generate(seed, divisor)
            for p in range(passes):
                with _pivot_rounds() as rounds:
                    bpp = _run(A, spec, "bpp", seed)
                pivots.append(statistics.fmean(rounds))
                target = bpp.points[-1][1] * (1 + RTOL)
                bpp_s = bpp.first_reach(target)
                targets.append(bpp.points[-1][1])
                cells["bpp"].append((bpp_s, bpp.points[-1][1], len(bpp.points)))
                for solver in (others if p % 2 == 0 else others[::-1]):
                    tr = _run(A, spec, solver, seed, target=target, cap=CAP * bpp_s)
                    best = min(err for _, err in tr.points)
                    cells[solver].append((tr.first_reach(target), best, len(tr.points)))
                    log(f"  {spec.name} seed {seed} pass {p + 1}: {solver} "
                        f"{cells[solver][-1]} (bpp {bpp_s:.3f} s)")
        rows.append((spec, statistics.median(targets), statistics.fmean(pivots), cells))
    return solvers, rows


def _cell(runs) -> str:
    reached = [(s, i) for s, _, i in runs if s is not None]
    if not reached:
        best = statistics.median(b for _, b, _ in runs)
        return f"not reached ({best:.6g} in ≤ {max(i for _, _, i in runs)} it)"
    seconds = statistics.median(s for s, _ in reached)
    iters = statistics.median(i for _, i in reached)
    share = "" if len(reached) == len(runs) else f", {len(reached)}/{len(runs)} runs"
    return f"{seconds:.3g} s ({iters:g} it{share})"


def table(solvers, rows, divisor: int) -> str:
    lines = [
        "| input (target @ BPP's iterations) | BPP pivot rounds per solve | "
        + " | ".join(solvers) + " |",
        "|---|---|" + "---|" * len(solvers),
    ]
    for spec, target, pivots, cells in rows:
        times = {s: statistics.median(t for t, _, _ in cells[s]) for s in solvers
                 if all(t is not None for t, _, _ in cells[s])}
        winner = min(times, key=times.get) if times else None
        row = [f"**{_cell(cells[s])}**" if s == winner else _cell(cells[s]) for s in solvers]
        lines.append(f"| {spec.label(divisor)} ({target:.6g} @ {spec.iters} it) "
                     f"| {pivots:.1f} | " + " | ".join(row) + " |")
    return "\n".join(lines)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="every shape / 32, seed 7, one pass")
    parser.add_argument("--quiet", action="store_true", help="print the table only")
    args = parser.parse_args(argv)
    divisor, seeds, passes = (32, [7], 1) if args.smoke else (1, SEEDS, PASSES)
    log = (lambda *_: None) if args.quiet else print
    solvers, rows = census(INPUTS, seeds, passes, divisor, log=log)
    print(f"host: {_cpu_model()}, {os.cpu_count()} CPUs; BLAS threads "
          f"{os.environ['OPENBLAS_NUM_THREADS']}; seeds {' '.join(map(str, seeds))}; "
          f"{passes} pass(es); cap {CAP:g}× BPP's time; reached = error ≤ target·(1 + {RTOL:g}); "
          f"cells are medians over seeds × passes")
    print(table(solvers, rows, divisor))


if __name__ == "__main__":
    main()
