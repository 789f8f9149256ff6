"""Tests for the planner: candidate enumeration, optimality, tie-breaking.

The optimality properties are the §5 claims turned into assertions: the
chosen grid must be the brute-force argmin of the modeled cost over *all*
factorizations of ``p``, and in the tall-and-skinny regime ``m ≫ n`` the
argmin collapses to the paper's 1D-like ``pr ≈ p`` grid.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.grid import factor_pairs
from repro.perf.machine import edison_machine
from repro.perf.model import (
    hpc_breakdown,
    hpc_words_per_iteration,
    naive_breakdown,
    naive_words_per_iteration,
)
from repro.plan import (
    PLANNER_VARIANT_ORDER,
    ExecutionPlan,
    ProblemSpec,
    make_plan,
    plan_candidates,
    render_plan_table,
)


@pytest.fixture(scope="module")
def machine():
    return edison_machine()


class TestCandidateEnumeration:
    def test_all_factorizations_plus_grid_free_variants(self, machine):
        problem = ProblemSpec(m=5000, n=3000, k=10)
        plans = plan_candidates(problem, 12, machine=machine)
        hpc2d = [p for p in plans if p.variant == "hpc2d"]
        assert len(hpc2d) == len(factor_pairs(12))
        assert {p.grid for p in hpc2d} == set(factor_pairs(12))
        assert sum(p.variant == "hpc1d" for p in plans) == 1
        assert sum(p.variant == "naive" for p in plans) == 1
        # Sequential cannot run on 12 ranks, so it must not be a candidate.
        assert all(p.variant != "sequential" for p in plans)

    def test_sorted_by_predicted_total(self, machine):
        plans = plan_candidates(ProblemSpec(m=5000, n=3000, k=10), 12, machine=machine)
        totals = [p.breakdown.total for p in plans]
        assert totals == sorted(totals)

    def test_variant_restriction(self, machine):
        plans = plan_candidates(
            ProblemSpec(m=5000, n=3000, k=10), 12, machine=machine, variants=["hpc1d"]
        )
        assert {p.variant for p in plans} == {"hpc1d"}

    def test_grid_pinning_excludes_grid_free_variants(self, machine):
        # A pinned grid is a constraint naive/sequential cannot honour, so
        # only gridded candidates on exactly that grid survive.
        plans = plan_candidates(
            ProblemSpec(m=5000, n=3000, k=10), 12, machine=machine, grid=(3, 4)
        )
        assert plans
        assert all(p.grid == (3, 4) for p in plans)

    def test_pinned_grid_must_factor_p(self, machine):
        with pytest.raises(ValueError, match="does not match p"):
            plan_candidates(
                ProblemSpec(m=5000, n=3000, k=10), 12, machine=machine, grid=(3, 3)
            )

    def test_unplannable_problem_raises(self, machine):
        # streaming has no cost model; restricting to it leaves nothing.
        with pytest.raises(ValueError, match="no registered variant"):
            plan_candidates(
                ProblemSpec(m=100, n=50, k=3), 4, machine=machine, variants=["streaming"]
            )

    def test_invalid_rank_count(self, machine):
        with pytest.raises(ValueError):
            plan_candidates(ProblemSpec(m=10, n=10, k=2), 0, machine=machine)

    def test_unknown_variant_name_lists_the_table(self, machine):
        with pytest.raises(KeyError, match="unknown variant 'bogus'.*hpc2d"):
            plan_candidates(ProblemSpec(m=100, n=50, k=3), 4, machine=machine,
                            variants=["bogus"])


def _closed_forms(problem, p, machine):
    """Every modeled candidate, straight from perf.model, in variant order."""
    k = problem.k
    rows = {
        "sequential": [(None, naive_breakdown(problem, k, 1, machine=machine), 0.0)]
        if p == 1 else [],
        "naive": [(None, naive_breakdown(problem, k, p, machine=machine),
                   naive_words_per_iteration(problem, k, p))],
        "hpc1d": [((p, 1), hpc_breakdown(problem, k, p, grid=(p, 1), machine=machine),
                   hpc_words_per_iteration(problem, k, p, grid=(p, 1)))],
        "hpc2d": [(g, hpc_breakdown(problem, k, p, grid=g, machine=machine),
                   hpc_words_per_iteration(problem, k, p, grid=g)) for g in factor_pairs(p)],
    }
    return [(name, *row) for name in PLANNER_VARIANT_ORDER for row in rows[name]]


class TestPlannerParity:
    """The table is perf.model's closed forms, cheapest first, ties in
    PLANNER_VARIANT_ORDER."""

    @pytest.mark.parametrize("p", [1, 2, 4, 6, 24])
    @pytest.mark.parametrize("problem", [
        ProblemSpec(m=3000, n=2000, k=16),
        ProblemSpec(m=50000, n=8000, k=20, nnz=400000),
    ], ids=["dense", "sparse"])
    def test_rows_equal_the_closed_forms(self, machine, problem, p):
        expected = sorted(_closed_forms(problem, p, machine), key=lambda row: row[2].total)
        plans = plan_candidates(problem, p, machine=machine)
        assert [(plan.variant, plan.grid, plan.breakdown.as_dict(), plan.words_per_iteration)
                for plan in plans] == [
            (name, grid, breakdown.as_dict(), words) for name, grid, breakdown, words in expected
        ]


class TestOptimality:
    @given(
        m=st.integers(64, 50_000),
        n=st.integers(64, 50_000),
        k=st.integers(2, 64),
        p=st.sampled_from([2, 4, 6, 8, 12, 16, 24, 36, 60]),
    )
    @settings(max_examples=60, deadline=None)
    def test_chosen_grid_is_brute_force_argmin(self, m, n, k, p):
        machine = edison_machine()
        problem = ProblemSpec(m=m, n=n, k=k)
        plan = make_plan(problem, p, machine=machine, variants=["hpc2d"])
        brute_force = min(
            hpc_breakdown(problem, k, p, grid=grid, machine=machine).total
            for grid in factor_pairs(p)
        )
        assert plan.breakdown.total == pytest.approx(brute_force, rel=1e-12)

    @given(
        n=st.integers(8, 200),
        k=st.integers(2, 16),
        p=st.sampled_from([2, 4, 8, 16, 32]),
        aspect=st.integers(2, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_tall_skinny_converges_to_1d_regime(self, n, k, p, aspect):
        # m ≫ n (beyond the m/p > n threshold): within the HPC family, §5
        # prescribes pr = p, pc = 1, and the cost argmin must agree.
        m = aspect * p * n + 1
        plan = make_plan(
            ProblemSpec(m=m, n=n, k=k), p, machine=edison_machine(), variants=["hpc2d"]
        )
        assert plan.grid == (p, 1)

    def test_large_tall_skinny_full_planner_goes_1d_hpc(self, machine):
        # At paper-like sizes (bandwidth-dominated, not latency-dominated)
        # the unrestricted planner also picks HPC on the 1D grid; tiny
        # problems may legitimately fall back to naive (fewer collectives).
        problem = ProblemSpec(m=1_000_000, n=2_400, k=50)  # Video-like shape
        plan = make_plan(problem, 16, machine=machine)
        assert plan.variant == "hpc2d"
        assert plan.grid == (16, 1)

    def test_single_rank_ties_resolve_to_sequential(self, machine):
        # At p = 1 every modeled candidate costs the same; the planner must
        # prefer the simplest execution.
        plan = make_plan(ProblemSpec(m=400, n=300, k=5), 1, machine=machine)
        assert plan.variant == "sequential"
        assert plan.grid is None
        assert plan.words_per_iteration == 0.0

    def test_squarish_problem_prefers_2d_over_1d_and_naive(self, machine):
        problem = ProblemSpec(m=20_000, n=20_000, k=50, nnz=4e6)
        plan = make_plan(problem, 36, machine=machine)
        assert plan.variant == "hpc2d"
        pr, pc = plan.grid
        assert pr > 1 and pc > 1  # genuinely 2D, per the §5 square rule


class TestExecutionPlan:
    def test_round_trips_through_dict(self, machine):
        plan = make_plan(ProblemSpec(m=900, n=300, k=8, name="toy"), 6, machine=machine)
        restored = ExecutionPlan.from_dict(plan.to_dict())
        assert restored == plan

    def test_saved_kernel_key_is_dropped_on_load(self, machine):
        # Plans were once priced per BPP kernel and recorded it; a payload
        # that still names one loads, the key ignored.
        plan = make_plan(ProblemSpec(m=900, n=300, k=8), 6, machine=machine)
        assert "kernel" not in plan.to_dict()
        assert "kernel" not in plan.summary()
        legacy = dict(plan.to_dict(), kernel="scalar")
        assert ExecutionPlan.from_dict(legacy) == plan

    @pytest.mark.parametrize("planner", [make_plan, plan_candidates])
    def test_planner_takes_no_kernel(self, machine, planner):
        with pytest.raises(TypeError, match="kernel"):
            planner(ProblemSpec(m=900, n=300, k=8), 6, machine=machine, kernel="scalar")

    def test_summary_names_the_choice(self, machine):
        plan = make_plan(ProblemSpec(m=900, n=300, k=8), 6, machine=machine)
        text = plan.summary()
        assert plan.variant in text
        assert "s/iter" in text
        assert machine.name in text


class TestRenderPlanTable:
    def test_table_contains_all_candidates_and_star(self, machine):
        plans = plan_candidates(ProblemSpec(m=5000, n=3000, k=10), 12, machine=machine)
        text = render_plan_table(plans)
        assert text.splitlines()[0].startswith("Execution plan candidates")
        assert "*" in text
        assert "words/iter" in text
        for variant in ("hpc2d", "hpc1d", "naive"):
            assert variant in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_plan_table([])


class TestWireBackendPricing:
    """`repro plan --backend socket` prices plans at the wire's alpha-beta."""

    def test_wire_backend_stamps_the_machine_name(self, machine):
        problem = ProblemSpec(m=5000, n=3000, k=10)
        plans = plan_candidates(problem, 4, machine=machine, backend="socket")
        assert all(plan.machine == "edison+socket" for plan in plans)
        mpi_plans = plan_candidates(problem, 4, machine=machine, backend="mpi")
        assert all(plan.machine == "edison+mpi" for plan in mpi_plans)

    def test_in_process_backend_pricing_is_unchanged(self, machine):
        problem = ProblemSpec(m=5000, n=3000, k=10)
        bare = plan_candidates(problem, 4, machine=machine)
        in_process = plan_candidates(problem, 4, machine=machine,
                                     backend="process")
        assert all(plan.machine == "edison" for plan in bare + in_process)
        # Naming an in-process backend adds no candidate and moves no price.
        assert [(p.variant, p.grid, p.breakdown.total) for p in in_process] == [
            (p.variant, p.grid, p.breakdown.total) for p in bare
        ]

    def test_wire_pricing_changes_the_communication_term(self, machine):
        """The repricing must surface in the predicted communication seconds,
        not just in a renamed header: TCP's ~20x fatter alpha dominates when
        messages are small, so a latency-bound problem must cost strictly
        more over the socket wire than in process (for bandwidth-bound
        problems the loopback link can legitimately be *cheaper* than
        Edison's modeled per-core share, so no blanket ordering exists)."""

        def blocking_comm(problem, backend):
            (plan,) = plan_candidates(
                problem, 4, machine=machine, backend=backend,
                variants=["hpc2d"], grid=(2, 2),
            )
            return plan.breakdown.communication

        latency_bound = ProblemSpec(m=120, n=80, k=2)
        assert blocking_comm(latency_bound, "socket") > (
            blocking_comm(latency_bound, "process")
        )
        bandwidth_bound = ProblemSpec(m=5000, n=3000, k=10)
        assert blocking_comm(bandwidth_bound, "socket") != (
            blocking_comm(bandwidth_bound, "process")
        )

    def test_make_plan_accepts_wire_backend(self, machine):
        plan = make_plan(ProblemSpec(m=4000, n=3000, k=10), 4,
                         machine=machine, backend="socket")
        assert plan.backend == "socket"
        assert plan.machine == "edison+socket"


class TestOneSchedule:
    """Every collective completes where it is issued, so a (variant, grid)
    has one price on every backend — no pipelined twin."""

    @pytest.mark.parametrize("backend", [None, "thread", "socket", "process", "lockstep", "mpi"])
    def test_one_candidate_per_variant_and_grid(self, machine, backend):
        problem = ProblemSpec(m=4000, n=3000, k=20)
        plans = plan_candidates(problem, 4, machine=machine, backend=backend)
        keys = [(p.variant, p.grid) for p in plans]
        assert len(keys) == len(set(keys))
        assert all(p.schedule == "blocking" for p in plans)
        assert all("HiddenComm" not in p.breakdown.seconds for p in plans)
        table = render_plan_table(plans)
        assert "schedule" not in table and "hidden" not in table
        assert "pipelined" not in plans[0].summary()

    def test_payload_saved_with_a_schedule_key_still_loads(self, machine):
        # Results saved before the pipelined twin was removed carry the key.
        plan = make_plan(ProblemSpec(m=4000, n=3000, k=20), 4, machine=machine, backend="thread")
        payload = {**plan.to_dict(), "schedule": "pipelined"}
        assert ExecutionPlan.from_dict(payload) == plan
        assert "schedule" not in plan.to_dict()
