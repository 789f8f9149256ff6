"""The layered benchmark: four workloads, end-to-end metrics, per-layer numbers.

    python3 benchmarks/layered/run.py --workload dense_bpp            # end to end
    python3 benchmarks/layered/run.py --workload dense_bpp --trace 1  # per layer
    python3 benchmarks/layered/run.py                                 # all four

Run from the root of a checkout.  The parent process never imports numpy: it
pins BLAS in the environment, starts fresh child interpreters (``child.py``),
pools their samples and checks for leaked processes, shared-memory segments
and temp files after each.  The last line of standard output is one JSON
object; everything a human reads is printed before it.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from child import EXIT_NOT_PINNED, RESULT_MARK  # noqa: E402
from harness import hostinfo, hostref, workloads  # noqa: E402
from harness.ops import OpLog  # noqa: E402
from harness.spans import self_times, write_chrome_trace  # noqa: E402
from harness.stats import percentile, summarize  # noqa: E402

CHILDREN = 3            # fresh interpreters per untraced workload run
CHILD_TIMEOUT_S = 150.0
SHM_DIR = Path("/dev/shm")
WALL_CLOCK_UNITS = {"s", "ms", "us", "1/s"}


class NotPinned(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

def _session_members(sid: int) -> List[int]:
    """Live processes whose session is ``sid`` (the child and whatever it left)."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry.name))
    return members


def _shm_entries() -> set:
    return set(os.listdir(SHM_DIR)) if SHM_DIR.is_dir() else set()


def _session_survivors(sid: int, grace_s: float = 2.0) -> List[int]:
    """What is left of session ``sid`` once its leader has exited.

    multiprocessing's resource tracker exits on its own when the leader's end
    of its pipe closes, a moment after the leader: it gets that moment.
    """
    deadline = time.perf_counter() + grace_s
    while True:
        survivors = _session_members(sid)
        if not survivors or time.perf_counter() > deadline:
            return survivors
        time.sleep(0.02)


def launch(role: str, spec: dict, out_dir: Path) -> Tuple[Optional[dict], List[str]]:
    """Run one child to completion; (its result, leak and failure findings)."""
    problems: List[str] = []
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    shm_before = _shm_entries()
    spec = {**spec, "role": role, "work_dir": str(work_dir), "t_spawn": time.perf_counter()}
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=REPO_ROOT, env=hostinfo.child_env(REPO_ROOT, work_dir),
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        # A clean process table: nothing of the child's session may outlive it.
        survivors = _session_survivors(proc.pid)
        if survivors:
            problems.append(f"processes {survivors} survived the {role} child")
    except subprocess.TimeoutExpired:
        problems.append(f"{role} child exceeded {CHILD_TIMEOUT_S:.0f} s and was killed")
        stdout, survivors = "", [proc.pid]
    if survivors:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()
    leaked = sorted(_shm_entries() - shm_before)
    if leaked:
        problems.append(f"/dev/shm segments left behind: {leaked}")
    leftovers = sorted(p.name for p in work_dir.iterdir())
    if leftovers:
        problems.append(f"temp files left behind: {leftovers}")
    shutil.rmtree(work_dir, ignore_errors=True)

    if proc.returncode == EXIT_NOT_PINNED:
        raise NotPinned()
    result = None
    for line in stdout.splitlines():
        if line.startswith(RESULT_MARK):
            result = json.loads(line[len(RESULT_MARK):])
    if result is None and not problems:
        problems.append(f"{role} child exited with {proc.returncode} and no result")
    return result, problems


# ---------------------------------------------------------------------------
# end to end (tracing off)
# ---------------------------------------------------------------------------

def _account(tally: OpLog, result: Optional[dict], leaks: List[str], who: str) -> None:
    """A child's own operations plus one more: did it exit leaving nothing behind."""
    tally.merge(result.get("ops") if result else None, who)
    tally.record(f"{who}: clean exit", leaks)


def _child_spec(args, workload, tag: str, traced: bool, budget_s: float, reference: bool) -> dict:
    # A serve child sends every pooled request at least once: rel_err is over the pool.
    min_ops = 2 if args.smoke or workload.is_fit else workload.pool
    return {
        "workload": workload.name, "seed": args.seed, "smoke": args.smoke, "ranks": args.ranks,
        "trace": traced, "tag": tag, "budget_s": budget_s, "min_ops": min_ops,
        "reference": reference,
    }


def run_end_to_end(args, workload, out_dir: Path) -> dict:
    tally = OpLog()
    n_children = 1 if args.smoke else CHILDREN
    budget = (0.0 if args.smoke else args.seconds) / n_children
    role = "fit" if workload.is_fit else "serve"
    children = []
    for i in range(n_children):
        spec = _child_spec(args, workload, f"w{i}.", False, budget, reference=(i == 0))
        result, leaks = launch(role, spec, out_dir)
        _account(tally, result, leaks, f"{workload.name} child {i}")
        if result is not None:
            children.append(result)
    samples = _fit_samples(children) if workload.is_fit else _serve_samples(children)
    # One seed, one answer: the children must agree on the deterministic output.
    errs = sorted(set(samples["rel_err"]))
    tally.record("children agree on rel_err", [f"values {errs}"] if len(errs) != 1 else [])
    # Wall times are reported at the host's nominal speed (see harness/hostref.py):
    # the host was `slowdown` times slower than nominal while this run measured.
    slowdown = hostref.speed_factor([r for c in children for r in c.get("host_ref", [])])
    samples["op_ms"] = [v / slowdown for v in samples["op_ms"]]
    samples["setup_s"] = [v / slowdown for v in samples["setup_s"]]
    samples["work_per_s"] = [v * slowdown for v in samples["work_per_s"]]
    values = {}
    if samples["op_ms"]:
        values = {
            "op_ms": statistics.median(samples["op_ms"]),
            "work_per_s": statistics.median(samples["work_per_s"]),
            "rel_err": samples["rel_err"][0],
            "setup_s": statistics.median(samples["setup_s"]),
            "peak_rss_mb": max(samples["peak_rss_mb"]),
        }
    else:
        tally.record("timed operations", ["no timed operation completed"])
    detail = {name: summarize(samples[name]) for name in values}
    return {
        "values": values, "detail": detail, "tally": tally,
        "native": samples["native"], "host_slowdown": slowdown,
        "generate_s": statistics.median([c["generate_s"] for c in children]) if children else None,
        "fingerprint": children[0]["fingerprint"] if children else None,
    }


def _fit_samples(children: List[dict]) -> dict:
    fits = [f for c in children for f in c["fits"]]
    iter_s = [s for f in fits for s in f["iter_s"]]
    walls = [f["wall_s"] for f in fits]
    # Iterations per second of each fit's loop.  A BPP fit's iterations get
    # several times cheaper as the passive sets settle, so the pooled median
    # of single iterations sits on a steep part of that curve; the per-fit
    # rate does not.
    rates = [f["iterations"] / sum(f["iter_s"]) for f in fits if sum(f["iter_s"]) > 0]
    return {
        "op_ms": [w * 1e3 for w in walls],
        "work_per_s": rates,
        "rel_err": [f["rel_err"] for f in fits],
        "setup_s": [c["setup_s"] for c in children],
        "peak_rss_mb": [c["peak_rss_mb"] for c in children],
        "native": {
            "fit_s": summarize(walls),
            "iter_s": summarize(iter_s),
        },
    }


def _serve_samples(children: List[dict]) -> dict:
    phases = [p for c in children for p in c.get("phases", [])]
    latencies = [s for p in phases for s in p["latencies_s"]]
    rates = [p["columns"] / p["wall_s"] for p in phases if p["wall_s"] > 0]
    return {
        "op_ms": [s * 1e3 for s in latencies],
        "work_per_s": rates,
        "rel_err": [c["rel_err"] for c in children if "rel_err" in c],
        "setup_s": [c["setup_s"] for c in children if "setup_s" in c],
        "peak_rss_mb": [c["peak_rss_mb"] for c in children],
        "native": {
            "serve_p50_ms": summarize([s * 1e3 for s in latencies]),
            "serve_cols_per_s": summarize(rates),
        },
    }


# ---------------------------------------------------------------------------
# per layer (traced)
# ---------------------------------------------------------------------------

def run_per_layer(args, workload, out_dir: Path) -> dict:
    """One traced child of the workload, the other kind's companion, the probes."""
    tally = OpLog()
    budget = (0.0 if args.smoke else args.seconds) / CHILDREN
    # core.* needs a fit loop and serve.* a server; the run's workload gives one,
    # the companion (the paper's default fit / the serve stream, shorter) the other.
    if workload.is_fit:
        fit_wl, serve_wl = workload, workloads.get(workloads.SERVE_WORKLOAD)
        fit_budget, serve_budget = budget, budget / 2
    else:
        fit_wl, serve_wl = workloads.get(workloads.DEFAULT_FIT_WORKLOAD), workload
        fit_budget, serve_budget = 0.0, budget
    fit_spec = _child_spec(args, fit_wl, "f.", True, fit_budget, reference=True)
    serve_spec = _child_spec(args, serve_wl, "s.", True, serve_budget, reference=False)
    if workload.is_fit:
        serve_spec["min_ops"] = min(serve_spec["min_ops"], 64)
    else:
        fit_spec["min_ops"] = 1

    fit_child, leaks = launch("fit", fit_spec, out_dir)
    _account(tally, fit_child, leaks, f"{fit_wl.name} traced child")
    serve_child, leaks = launch("serve", serve_spec, out_dir)
    _account(tally, serve_child, leaks, f"{serve_wl.name} traced child")
    probe_child, leaks = launch(
        "probes", {"seed": args.seed, "smoke": args.smoke, "tag": "p."}, out_dir
    )
    tally.record("probes child", leaks)

    values: Dict[str, float] = {}
    if probe_child is not None:
        values.update(probe_child["metrics"])
    else:
        tally.record("layer probes", ["the probes child gave no result"])
    if fit_child is not None and fit_child["fits"]:
        values.update(_core_metrics(fit_child))
    else:
        tally.record("traced fit", ["no fit completed"])
    if serve_child is not None and serve_child.get("phases"):
        values.update(_serve_metrics(serve_child))
    else:
        tally.record("traced serve", ["no request phase completed"])
    refs = [r for c in (fit_child, serve_child) if c for r in c.get("host_ref", [])]
    if refs:
        values["host.ref_ms"] = statistics.median(refs)
    own = fit_child if workload.is_fit else serve_child
    if own is not None:
        values["data.generate_s"] = own["generate_s"]
        overhead = _trace_overhead(own, workload.is_fit)
        if overhead is not None:
            values["trace.overhead_frac"] = overhead

    spans = [s for c in (fit_child, serve_child, probe_child) if c for s in c.get("spans", [])]
    return {
        "values": values, "tally": tally, "spans": spans,
        "core_measured_on": fit_wl.name, "serve_measured_on": serve_wl.name,
        "notes": probe_child.get("notes", {}) if probe_child else {},
        "self_time_s": self_times(spans),
        "fingerprint": (fit_child or serve_child or probe_child or {}).get("fingerprint"),
    }


_CATEGORIES = {
    "mm": "MM", "nls": "NLS", "gram": "Gram", "allgather": "AllGather",
    "reducescatter": "ReduceScatter", "allreduce": "AllReduce", "hidden_comm": "HiddenComm",
}
_EXPOSED = ("AllGather", "ReduceScatter", "AllReduce")


def _core_metrics(child: dict) -> Dict[str, float]:
    """``core.*``, ``comm.ledger.*``, ``plan.*`` and ``perf.*`` from a traced fit child."""
    fits = child["fits"]  # the untraced twins: an observer changes the schedule
    iters = sum(f["iterations"] for f in fits)
    loop_s = sum(sum(f["iter_s"]) for f in fits)
    out = {}
    per_iter = {}
    for short, cat in _CATEGORIES.items():
        per_iter[cat] = sum(f["breakdown"].get(cat, 0.0) for f in fits) / iters
        out[f"core.{short}_ms_per_iter"] = per_iter[cat] * 1e3
    critical = sum(v for cat, v in per_iter.items() if cat != "HiddenComm")
    exposed = sum(per_iter[c] for c in _EXPOSED)
    out["core.other_ms_per_iter"] = (loop_s / iters - critical) * 1e3
    out["core.exposed_comm_frac"] = exposed / (loop_s / iters)
    out["core.fit_overhead_ms"] = statistics.median(f["wall_s"] - sum(f["iter_s"]) for f in fits) * 1e3
    iter_s = statistics.median(s for f in fits for s in f["iter_s"])
    for name, key in (("blocking_over_default", "blocking"), ("seq_over_par", "sequential"),
                      ("naive_over_hpc", "naive")):
        other = child.get(key)
        if other:
            out[f"core.{name}"] = statistics.median(other["iter_s"]) / iter_s
    out["comm.ledger.words_per_iter"] = fits[0]["words_per_iter"]
    out["comm.ledger.messages_per_iter"] = fits[0]["messages_per_iter"]
    plan = child.get("plan")
    if plan:
        out["plan.make_plan_ms"] = plan["make_plan_ms"]
        out["perf.calibrate_s"] = plan["calibrate_s"]
        compute = per_iter["MM"] + per_iter["NLS"] + per_iter["Gram"]
        out["perf.pred_over_meas.compute"] = plan["compute_s"] / compute
        out["perf.pred_over_meas.comm"] = plan["comm_s"] / exposed
        out["perf.pred_over_meas.total"] = plan["total_s"] / critical
    return out


def _serve_metrics(child: dict) -> Dict[str, float]:
    latencies = [s for p in child["phases"] for s in p["latencies_s"]]
    stats = child.get("stats", {})
    p50 = statistics.median(latencies)
    service_p50 = float(stats.get("latency_seconds", {}).get("p50", float("nan")))
    return {
        "serve.latency_p99_ms": percentile(latencies, 99.0) * 1e3,
        "serve.service_p50_ms": service_p50 * 1e3,
        # connect, request parse and JSON encode: what the client waits for
        # beyond the service's own admit-to-answer time
        "serve.http_overhead_ms": (p50 - service_p50) * 1e3,
        "serve.mean_batch_columns": float(stats.get("mean_batch_columns", float("nan"))),
        "serve.shed_total": float(stats.get("shed_total", 0)),
        "serve.deadline_total": float(stats.get("deadline_total", 0)),
    }


def _trace_overhead(child: dict, is_fit: bool) -> Optional[float]:
    if is_fit:
        plain = [f["wall_s"] for f in child["fits"]]
        traced = [f["wall_s"] for f in child["traced_fits"]]
    else:
        plain = [s for p in child["phases"] for s in p["latencies_s"]]
        traced = [s for p in child["traced_phases"] for s in p["latencies_s"]]
    if not plain or not traced:
        return None
    return statistics.median(traced) / statistics.median(plain) - 1.0


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _fmt(v: Optional[float]) -> str:
    return "-" if v is None else f"{v:.6g}"


def print_report(name: str, traced: bool, run: dict, declared: List[dict], unresolved: bool) -> None:
    kind = "per layer (traced)" if traced else "end to end (tracing off)"
    print(f"\n== {name}: {kind} ==")
    print(f"{'metric':46} {'unit':>8} {'value':>12} {'q1':>12} {'q3':>12} {'tail':>16} {'n':>6}")
    for metric in declared:
        mname, unit = metric["name"], metric["unit"]
        value = run["values"].get(mname)
        d = run.get("detail", {}).get(mname, {})
        tail = f"p{d['tail_q']:g}={d['tail']:.6g}" if "tail" in d else "-"
        shown = "unresolved" if unresolved and unit in WALL_CLOCK_UNITS else _fmt(value)
        print(f"{mname:46} {unit:>8} {shown:>12} {_fmt(d.get('q1')):>12} "
              f"{_fmt(d.get('q3')):>12} {tail:>16} {d.get('n', 1):>6}")
    for alias, d in run.get("native", {}).items():
        print(f"  (as measured, {alias}: median {_fmt(d.get('median'))}, q1 {_fmt(d.get('q1'))}, "
              f"q3 {_fmt(d.get('q3'))}, n {d.get('n')})")
    if "host_slowdown" in run:
        print(f"  host reference {run['host_slowdown'] * hostref.NOMINAL_MS:.3f} ms "
              f"(nominal {hostref.NOMINAL_MS:g}): op_ms and setup_s are the measured times "
              f"/ {run['host_slowdown']:.3f}, work_per_s the measured rate x {run['host_slowdown']:.3f}")
    extra = sorted(set(run["values"]) - {m["name"] for m in declared})
    for mname in extra:
        print(f"{mname:46} {'':>8} {_fmt(run['values'][mname]):>12}   (not in BENCHMARK.json)")
    if traced:
        print(f"  core.* measured on {run['core_measured_on']}, serve.* on {run['serve_measured_on']}")
        for key, seconds in sorted(run["self_time_s"].items()):
            print(f"  self time {key:40} {seconds:10.4f} s")
    tally = run["tally"]
    print(f"  operations: {tally.attempted} attempted, {tally.failed} failed")
    for problem in tally.problems:
        print(f"  FAILED {problem}")


def result_object(run: dict, declared: List[dict]) -> dict:
    tally = run["tally"]
    metrics = {}
    for metric in declared:
        value = run["values"].get(metric["name"])
        if value is None or value != value:  # missing or NaN: the run is not correct
            tally.record(f"metric {metric['name']}", ["no value was measured"])
            value = 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    bench_file = REPO_ROOT / "BENCHMARK.json"
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").exists() or not bench_file.exists():
        print(f"layered benchmark: {REPO_ROOT} is not a checkout of the program "
              "(src/repro or BENCHMARK.json is missing)", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    names = list(why)

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=7, help="seeds input generation only")
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]),
                        help="timed budget of one workload run, shared by its children")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the separate traced run that gives the per-layer metrics")
    parser.add_argument("--ranks", type=int, default=2,
                        help="SPMD ranks p; committed numbers and comparisons use 2")
    parser.add_argument("--smoke", action="store_true", help="shapes / 8, one child, two timed ops")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for the metrics file and the Chrome trace")
    args = parser.parse_args(argv)

    out_dir = args.out if args.out.is_absolute() else Path.cwd() / args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    unresolved = args.ranks > hostinfo.cpus_available()
    if unresolved:
        print(f"layered benchmark: p = {args.ranks} ranks on {hostinfo.cpus_available()} CPUs; "
              "wall-clock metrics are unresolved, only counts are meaningful", file=sys.stderr)
    host = hostinfo.host_fingerprint(REPO_ROOT)
    traced = bool(args.trace)
    declared = bench["per_layer"] if traced else bench["end_to_end"]
    selected = names if args.workload == "all" else [args.workload]

    results = {}
    for name in selected:
        workload = workloads.get(name)
        try:
            run = (run_per_layer if traced else run_end_to_end)(args, workload, out_dir)
        except NotPinned:
            print("layered benchmark: aborted, a child reported more than one BLAS thread",
                  file=sys.stderr)
            return EXIT_NOT_PINNED
        print_report(name, traced, run, declared, unresolved)
        result = result_object(run, declared)
        results[name] = result
        stem = f"layered_{name}_seed{args.seed}_trace{args.trace}"
        payload = {
            "workload": name, "why": why[name], "seed": args.seed, "ranks": args.ranks,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "unresolved": unresolved, "host": host, "child": run.get("fingerprint"),
            "result": result, "detail": run.get("detail", {}), "native": run.get("native", {}),
            "problems": run["tally"].problems,
            "all_values": run["values"],
        }
        if traced:
            payload.update(
                core_measured_on=run["core_measured_on"], serve_measured_on=run["serve_measured_on"],
                self_time_s=run["self_time_s"], notes=run["notes"],
            )
            write_chrome_trace(run["spans"], out_dir / f"{stem}.trace.json")
            print(f"  Chrome trace: {out_dir / (stem + '.trace.json')}")
        else:
            payload["generate_s"] = run["generate_s"]
            payload["host_slowdown"] = run["host_slowdown"]
        (out_dir / f"{stem}.json").write_text(json.dumps(payload, indent=1))
        print(f"  metrics file: {out_dir / (stem + '.json')}")

    print(f"\nhost: {host['cpu_model']}, {host['nproc']} CPUs, LLC {host['llc_bytes'] >> 20} MiB, "
          f"RAM {host['ram_bytes'] >> 30} GiB, python {host['python']}, git {host['git_sha'][:12]}, "
          f"seed {args.seed}, p = {args.ranks}")
    if len(selected) == 1:
        final = results[selected[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
