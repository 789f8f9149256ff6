#!/usr/bin/env python3
"""Scaling study: regenerate the paper's evaluation series from two public calls.

A *modeled* Figure-3 / Table-3 cell is one row of ``repro.plan_candidates``
(the closed forms of §4.3/§5 on the Edison constants, at the paper's data
sizes and core counts — what ``repro plan SSYN -k 10 -p 600`` prints); a
*measured* cell is one ``repro.fit(...).breakdown`` on this machine with the
scaled-down dataset.  This script is the loop over those two calls:

* Figure 3 a/c/e/g — comparison: p = 600 cores, k ∈ {10..50};
* Figure 3 b/d/f/h — strong scaling: k = 50, the paper's core counts;
* Table 3 — total seconds per (variant, dataset, cores) at k = 50.

Run with::

    python examples/scaling_study.py                # all datasets, modeled only
    python examples/scaling_study.py SSYN --measured
"""

from __future__ import annotations

import argparse

from repro import ProblemSpec, fit, get_variant, plan_candidates
from repro.comm.grid import choose_grid
from repro.data.registry import measured_scale, paper_scale

DATASETS = ("DSYN", "SSYN", "Video", "Webbase")
#: The three variants the paper's evaluation compares, by name.
VARIANTS = ("naive", "hpc1d", "hpc2d")
#: §6: rank sweep at 600 cores; core sweep at k = 50 (the dense datasets only
#: fit on 9+ nodes, so their sweep starts at 216).
PAPER_RANKS = (10, 20, 30, 40, 50)
PAPER_CORES = (24, 96, 216, 384, 600)
PAPER_CORES_DENSE = (216, 384, 600)
TASKS = ("NLS", "MM", "Gram", "AllGather", "ReduceScatter", "AllReduce")


def modeled(dataset: str, k: int, p: int) -> dict:
    """``{variant: per-iteration TimeBreakdown}`` at paper scale.

    ``hpc2d`` is read at the §5-rule grid (the paper's HPC-NMF-2D), not at
    the planner's brute-force argmin over all factorizations of ``p``.
    """
    spec = paper_scale(dataset)
    rule_grid = choose_grid(spec.m, spec.n, p)
    plans = plan_candidates(ProblemSpec.from_dataset(spec, k), p, variants=VARIANTS)
    return {
        plan.variant: plan.breakdown
        for plan in plans
        if plan.variant != "hpc2d" or plan.grid == rule_grid
    }


def measured(dataset: str, k: int, p: int, iterations: int = 3) -> dict:
    """``{variant: per-iteration TimeBreakdown}`` of real runs on this machine."""
    A = measured_scale(dataset).load()
    cells = {}
    for variant in VARIANTS:
        # No error computation: the six categories of Figure 3 only.
        result = fit(A, k, variant=variant, n_ranks=p, max_iters=iterations,
                     compute_error=False, seed=1)
        cells[variant] = result.breakdown.scaled(1.0 / result.iterations)
    return cells


def print_series(title: str, cells_by_x: dict) -> None:
    """One Figure-3 panel: a row per (variant, x) with the per-task split."""
    print(title)
    print(f"{'variant':>10}  {'x':>4}  " + "  ".join(f"{t:>13}" for t in TASKS) + f"  {'total':>8}")
    for variant in VARIANTS:
        for x, cells in cells_by_x.items():
            b = cells[variant]
            print(f"{get_variant(variant).label:>10}  {x:>4}  "
                  + "  ".join(f"{b.get(t):>13.4f}" for t in TASKS) + f"  {b.total:>8.4f}")
    print()


def run_dataset(dataset: str, with_measured: bool) -> dict:
    """Print one dataset's panels; returns its k = 50 scaling series for Table 3."""
    print("=" * 78)
    print(f"Dataset: {dataset}")
    print("=" * 78)

    comparison = {k: modeled(dataset, k, 600) for k in PAPER_RANKS}
    print_series("modeled per-iteration seconds vs k (x) at p = 600", comparison)
    for k, cells in comparison.items():
        print(f"  k={k}: modeled Naive / HPC-NMF-2D speedup "
              f"{cells['naive'].total / cells['hpc2d'].total:.2f}x")
    print("  (paper reports up to 4.4x on SSYN, k=10)\n")

    cores = PAPER_CORES if paper_scale(dataset).is_sparse else PAPER_CORES_DENSE
    scaling = {p: modeled(dataset, 50, p) for p in cores}
    print_series("modeled per-iteration seconds vs cores (x) at k = 50", scaling)

    if with_measured:
        cells_by_k = {k: measured(dataset, k, 4) for k in (2, 4, 8)}
        print_series("measured on this machine (scaled-down dataset, p = 4) vs k (x)",
                     cells_by_k)
    return scaling


def print_table3(scaling_by_dataset: dict) -> None:
    print("=" * 78)
    print("Table 3 analogue (modeled at paper scale, k = 50, seconds per iteration)")
    print("=" * 78)
    print(f"{'cores':>18}  " + "  ".join(f"{p:>8}" for p in PAPER_CORES))
    for dataset, scaling in scaling_by_dataset.items():
        for variant in VARIANTS:
            row = "  ".join(
                f"{scaling[p][variant].total:>8.4f}" if p in scaling else f"{'-':>8}"
                for p in PAPER_CORES
            )
            print(f"{variant + ':' + dataset:>18}  {row}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    # Names are checked by hand: argparse checks a list default against
    # ``choices`` on some Python versions and rejects the no-argument run.
    parser.add_argument("datasets", nargs="*", metavar="DATASET",
                        help=f"datasets to study: {', '.join(DATASETS)} (default: all four)")
    parser.add_argument("--measured", action="store_true",
                        help="also run the measured-mode comparison on this machine")
    args = parser.parse_args()
    unknown = [name for name in args.datasets if name not in DATASETS]
    if unknown:
        parser.error(f"unknown dataset(s) {', '.join(unknown)}; choose from "
                     f"{', '.join(DATASETS)}")

    datasets = args.datasets or list(DATASETS)
    print_table3({dataset: run_dataset(dataset, args.measured) for dataset in datasets})


if __name__ == "__main__":
    main()
