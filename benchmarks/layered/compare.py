"""Compare two sets of layered-benchmark runs, metric by metric.

    python3 benchmarks/layered/compare.py A B

``A`` and ``B`` are metrics files written by ``run.py`` or directories of
them (one set of runs each: the parent and the change, or the same commit
twice for the repeatability check).  For every (workload, end-to-end metric)
the two medians, their quartiles, the relative change and the bound from
``BENCHMARK.json`` are printed.  With several runs per side the quartiles are
those of the runs' values; with one run they are the run's own samples.  A
pair whose inter-quartile range exceeds the bound on either side is
``unresolved``, not unchanged.  Exit status 1 on a regression, a failed
operation, or a count that should repeat exactly and does not.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness.stats import quartiles  # noqa: E402

#: per-layer values that are counts made by the program: same seed, same count
EXACT_COUNTS = (
    "comm.ledger.words_per_iter", "comm.ledger.messages_per_iter",
    "nls.bpp.iterations", "nls.bpp.chol_flops",
)


def load_runs(path: Path) -> List[dict]:
    files = sorted(path.glob("layered_*_trace[01].json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files]
    if not runs:
        raise SystemExit(f"no layered_*.json metrics files under {path}")
    return runs


def _by_workload(runs: List[dict], trace: int) -> Dict[str, List[dict]]:
    out: Dict[str, List[dict]] = {}
    for run in runs:
        if run["trace"] == trace:
            out.setdefault(run["workload"], []).append(run)
    return out


def _side(runs: List[dict], metric: str) -> dict:
    values = [r["result"]["metrics"][metric]["value"] for r in runs]
    if len(values) > 1:
        q1, q3 = quartiles(values)
    else:
        detail = runs[0].get("detail", {}).get(metric, {})
        q1, q3 = detail.get("q1", values[0]), detail.get("q3", values[0])
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": abs(q3 - q1) / abs(median) if median else float("inf")}


def compare(a_runs: List[dict], b_runs: List[dict], bench: dict) -> int:
    status = 0
    a_e2e, b_e2e = _by_workload(a_runs, 0), _by_workload(b_runs, 0)
    print(f"{'workload':14} {'metric':12} {'A median':>12} {'A q1..q3':>25} {'B median':>12} "
          f"{'B q1..q3':>25} {'change':>9} {'bound':>6}  verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        if workload not in a_e2e or workload not in b_e2e:
            continue
        a, b = a_e2e[workload], b_e2e[workload]
        failed = sum(r["result"]["failed"] for r in a + b)
        if failed:
            print(f"{workload:14} {failed} failed operation(s)")
            status = 1
        same_seeds = sorted(r["seed"] for r in a) == sorted(r["seed"] for r in b)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sa, sb = _side(a, name), _side(b, name)
            change = (sb["median"] - sa["median"]) / abs(sa["median"]) if sa["median"] else float("inf")
            worse = change if metric["better"] == "lower" else -change
            if name == "rel_err" and same_seeds:
                # Deterministic for a seed: any change is a change of algorithm.
                verdict = "ok (exact)" if abs(change) <= 1e-9 else "REGRESSION (not exact)"
            elif max(sa["spread"], sb["spread"]) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
            if verdict.startswith("REGRESSION"):
                status = 1
            print(f"{workload:14} {name:12} {sa['median']:12.6g} "
                  f"{sa['q1']:12.6g}..{sa['q3']:<11.6g} {sb['median']:12.6g} "
                  f"{sb['q1']:12.6g}..{sb['q3']:<11.6g} {change:+9.2%} {bound:6.0%}  {verdict}")

    # Program-made counts from traced runs of the same workload and seed.
    a_traced = {(r["workload"], r["seed"]): r for r in a_runs if r["trace"] == 1}
    for rb in b_runs:
        key = (rb["workload"], rb["seed"])
        ra = a_traced.get(key)
        if rb["trace"] != 1 or ra is None:
            continue
        for name in EXACT_COUNTS:
            va = ra["result"]["metrics"][name]["value"]
            vb = rb["result"]["metrics"][name]["value"]
            if va != vb:
                print(f"{key[0]:14} {name}: {va!r} != {vb!r} (seed {key[1]}) COUNT CHANGED")
                status = 1
    return status


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    bench = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    return compare(load_runs(Path(argv[0])), load_runs(Path(argv[1])), bench)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
