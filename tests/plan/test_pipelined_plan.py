"""Pipelined-schedule pricing: pipelined_breakdown and planner candidates."""

import pytest

from repro.perf.machine import edison_machine
from repro.perf.model import hpc_breakdown, naive_breakdown, pipelined_breakdown
from repro.plan import make_plan, plan_candidates, render_plan_table
from repro.plan.planner import ExecutionPlan
from repro.plan.problem import ProblemSpec

PROBLEM = ProblemSpec(m=4000, n=3000, k=20)


def test_pipelined_breakdown_moves_time_to_hidden():
    machine = edison_machine()
    blocking = hpc_breakdown(PROBLEM, 20, 4, machine=machine)
    overlapped = pipelined_breakdown(blocking, "hpc2d", "thread", machine)
    hidden = overlapped.hidden_communication
    assert hidden > 0.0
    # Exposed total shrinks by exactly the hidden amount; computation is
    # untouched.  Panel streaming makes the reduce-scatters overlappable too.
    assert overlapped.total == pytest.approx(blocking.total - hidden)
    assert overlapped.computation == pytest.approx(blocking.computation)
    assert overlapped.get("ReduceScatter") < blocking.get("ReduceScatter")
    assert overlapped.get("AllGather") < blocking.get("AllGather")


def test_pipelined_breakdown_is_identity_when_nothing_overlaps():
    machine = edison_machine()
    blocking = naive_breakdown(PROBLEM, 20, 4, machine=machine)
    # The backends that complete handles at issue hide nothing; unknown
    # backends price conservatively.
    assert pipelined_breakdown(blocking, "naive", "lockstep", machine) is blocking
    assert pipelined_breakdown(blocking, "naive", "process", machine) is blocking
    assert pipelined_breakdown(blocking, "naive", None, machine) is blocking
    assert pipelined_breakdown(blocking, "sequential", "thread", machine) is blocking


def test_hidden_capped_by_computation():
    machine = edison_machine().with_options(
        overlap_efficiency={"process": 1.0}
    )
    # A communication-dominated breakdown: almost no compute to hide behind.
    from repro.comm.profiler import TimeBreakdown

    blocking = TimeBreakdown.from_parts(MM=0.001, Gram=0.0, NLS=0.0, AllGather=10.0)
    overlapped = pipelined_breakdown(blocking, "hpc2d", "process", machine)
    assert overlapped.hidden_communication == pytest.approx(0.001)


def test_planner_emits_pipelined_candidates_only_with_backend():
    default = plan_candidates(PROBLEM, 4)
    assert all(plan.schedule == "blocking" for plan in default)

    with_backend = plan_candidates(PROBLEM, 4, backend="thread")
    schedules = {plan.schedule for plan in with_backend}
    assert schedules == {"blocking", "pipelined"}
    best = with_backend[0]
    assert best.schedule == "pipelined"
    # Same bytes move either way: word volume matches the blocking twin.
    twin = next(
        p for p in with_backend
        if p.schedule == "blocking" and p.variant == best.variant
        and p.grid == best.grid
    )
    assert best.words_per_iteration == twin.words_per_iteration
    assert best.seconds_per_iteration < twin.seconds_per_iteration
    assert "pipelined" in best.summary()

    # No twin on a backend whose handles complete at issue: there is no
    # pipelined schedule to run there.
    for eager in ("lockstep", "process", "mpi"):
        plans = plan_candidates(PROBLEM, 4, backend=eager)
        assert all(plan.schedule == "blocking" for plan in plans)
    assert make_plan(PROBLEM, 4, backend="process").schedule == "blocking"


def test_plan_roundtrip_and_table_rendering():
    plans = plan_candidates(PROBLEM, 4, backend="thread")
    best = plans[0]
    assert ExecutionPlan.from_dict(best.to_dict()) == best
    # Legacy payloads without a schedule key default to blocking.
    payload = best.to_dict()
    del payload["schedule"]
    assert ExecutionPlan.from_dict(payload).schedule == "blocking"

    table = render_plan_table(plans)
    assert "schedule" in table and "exposed" in table and "hidden" in table

    blocking_only = plan_candidates(PROBLEM, 4)
    assert "schedule" not in render_plan_table(blocking_only)
