"""One child interpreter's share of a fit workload.

Order inside the child: import, generate the input, one warm-up fit
(discarded: the first fit in an interpreter pays page faults and lazy imports
the later ones do not), then timed fits until the child's time budget is
spent, then the correctness reference.  In a traced child every timed fit is
followed by a traced twin, and the schedule/variant ratio fits and the cost
model prediction are added.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from pathlib import Path
from typing import Optional

from harness import hostref, workloads
from harness.ops import OpLog, peak_rss_mb
from harness.spans import IterationStamps, SpanRecorder


def _fit_record(result, wall: float) -> dict:
    words, messages = workloads.ledger_per_iteration(result)
    return {
        "wall_s": wall,
        "iter_s": [s.seconds for s in result.history],
        "rel_err": result.relative_error,
        "iterations": result.iterations,
        "breakdown": result.breakdown.as_dict(),
        "grid": list(result.grid_shape) if result.grid_shape else None,
        "words_per_iter": words,
        "messages_per_iter": messages,
    }


def run(spec: dict) -> dict:
    from repro import fit

    wl = workloads.get(spec["workload"])
    seed, smoke, ranks, traced = spec["seed"], spec["smoke"], spec["ranks"], spec["trace"]
    rec = SpanRecorder(wl.name, prefix=spec["tag"], enabled=traced)
    ops = OpLog()
    work_dir = Path(spec["work_dir"])

    start = time.perf_counter()
    with rec.span("data", "generate"):
        A = wl.generate(seed, smoke)
    generate_s = time.perf_counter() - start
    shape = A.shape
    kwargs = wl.fit_kwargs(seed, ranks, smoke)
    iters = kwargs["max_iters"]

    def one_fit(label: str, observer: Optional[IterationStamps] = None, **override):
        """Run one fit; returns its record, or None if it raised (a failed op)."""
        call = {**kwargs, **override}
        check_ledger = call["variant"] == "hpc2d" and observer is None
        try:
            with rec.span("core", label) as span_id:
                t0 = time.perf_counter()
                result = fit(A, wl.k, observers=[observer] if observer else (), **call)
                wall = time.perf_counter() - t0
        except Exception:  # the benchmark must report the failure, not die with it
            ops.record(label, [traceback.format_exc(limit=4)])
            return None
        problems = workloads.check_fit_result(result, iters)
        if check_ledger:
            problems += workloads.check_ledger(result, shape, wl.k)
        if multiprocessing.active_children():
            problems.append("rank processes survived the fit")
        ops.record(label, problems)
        if observer is not None:
            stamps = observer.read()
            for a, b in zip(stamps, stamps[1:]):
                rec.add("core", "iteration", a, b, parent=span_id)
        return _fit_record(result, wall)

    warm = one_fit("fit_warmup")
    # Set-up as a user pays it: interpreter start, imports, first fit.  The
    # benchmark's own input generation is not the program's cost.
    setup_s = time.perf_counter() - spec["t_spawn"] - generate_s
    out = {
        "generate_s": generate_s,
        "setup_s": setup_s,
        "shape": list(shape),
        "fits": [],
        "traced_fits": [],
        "host_ref": [hostref.sample()],
    }
    if warm is None:
        out.update(ops=ops.as_dict(), spans=rec.spans, peak_rss_mb=peak_rss_mb())
        return out

    observer = IterationStamps(work_dir / f"{spec['tag']}stamps.json")
    timed_start = time.perf_counter()
    while len(out["fits"]) < spec["min_ops"] or time.perf_counter() - timed_start < spec["budget_s"]:
        record = one_fit("fit")
        if record is None:
            break
        out["fits"].append(record)
        out["host_ref"].append(hostref.sample())
        if traced:
            record = one_fit("fit_traced", observer=observer)
            if record is not None:
                out["traced_fits"].append(record)

    # Deterministic for a seed: every fit of this child must agree bit for bit.
    errs = {r["rel_err"] for r in [warm, *out["fits"]]}
    ops.record("repeat_determinism", [f"rel_err differs across fits: {sorted(errs)}"] if len(errs) > 1 else [])

    if spec["reference"]:
        # §6.1.3 protocol: same seed, same computations, sequential Algorithm 1.
        seq = one_fit("fit_sequential", variant="sequential", n_ranks=1, backend=None)
        if seq is not None:
            gap = workloads.relative_gap(seq["rel_err"], warm["rel_err"])
            ops.record(
                "sequential_reference",
                [f"rel_err {warm['rel_err']!r} vs sequential {seq['rel_err']!r}"] if gap > 1e-9 else [],
            )
            out["sequential"] = seq

    if traced:
        out["blocking"] = one_fit("fit_blocking", overlap=False)
        out["naive"] = one_fit("fit_naive", variant="naive")
        out["plan"] = _predict(A, wl, ranks, rec)

    out.update(ops=ops.as_dict(), spans=rec.spans, peak_rss_mb=peak_rss_mb())
    return out


def _predict(A, wl, ranks: int, rec: SpanRecorder) -> dict:
    """The §4.3-§5 model's per-iteration prediction for this problem on this host."""
    from repro.perf import MachineSpec
    from repro.plan import ProblemSpec, make_plan

    t0 = time.perf_counter()
    with rec.span("perf", "calibrate"):
        machine = MachineSpec.calibrate(ranks=ranks)
    t1 = time.perf_counter()
    with rec.span("plan", "make_plan"):
        plan = make_plan(
            ProblemSpec.from_matrix(A, wl.k), ranks, machine=machine,
            variants=["hpc2d"], backend=wl.backend, solver=wl.solver,
        )
    t2 = time.perf_counter()
    b = plan.breakdown
    return {
        "calibrate_s": t1 - t0,
        "make_plan_ms": (t2 - t1) * 1e3,
        "schedule": plan.schedule,
        "compute_s": b.computation,
        "comm_s": b.communication,
        "total_s": b.total,
    }
