"""Tests of the analytic performance model against the paper's claims."""

import math

import pytest

from repro.comm.grid import choose_grid
from repro.data.registry import paper_scale
from repro.perf.machine import edison_machine
from repro.perf.model import (
    bpp_flops,
    dense_flops_per_iteration,
    hpc_breakdown,
    hpc_words_per_iteration,
    naive_breakdown,
    naive_words_per_iteration,
    sparse_flops_per_iteration,
    table2_costs,
)
from repro.plan import ProblemSpec, plan_candidates


@pytest.fixture(scope="module")
def machine():
    return edison_machine()


def modeled(variant, dataset, k, p, machine):
    """One modeled Figure-3 / Table-3 cell: ``hpc2d`` on the §5 grid."""
    problem = ProblemSpec.from_dataset(paper_scale(dataset), k)
    if variant == "naive":
        return naive_breakdown(problem, k, p, machine=machine)
    return hpc_breakdown(problem, k, p, grid=(p, 1) if variant == "hpc1d" else None,
                         machine=machine)


class TestFlopCounts:
    def test_dense_flops_formula(self):
        assert dense_flops_per_iteration(100, 50, 10, 4) == pytest.approx(4 * 100 * 50 * 10 / 4)

    def test_sparse_flops_formula(self):
        assert sparse_flops_per_iteration(1e6, 20, 10) == pytest.approx(4 * 1e6 * 20 / 10)

    def test_bpp_flops_scale_superlinearly_in_k(self):
        # Doubling k must more than double the NLS cost (the Webbase effect).
        assert bpp_flops(40, 1000, 10) > 2.5 * bpp_flops(20, 1000, 10)

    def test_bpp_flops_linear_in_columns(self):
        assert bpp_flops(20, 2000, 10) == pytest.approx(2 * bpp_flops(20, 1000, 10))


class TestBreakdowns:
    def test_naive_has_no_reduce_scatter_or_allreduce(self, machine):
        spec = paper_scale("SSYN")
        b = naive_breakdown(spec, k=50, p=600, machine=machine)
        assert b.get("ReduceScatter") == 0.0
        assert b.get("AllReduce") == 0.0
        assert b.get("AllGather") > 0.0

    def test_naive_gram_is_redundant_so_does_not_shrink_with_p(self, machine):
        spec = paper_scale("DSYN")
        g216 = naive_breakdown(spec, 50, 216, machine=machine).get("Gram")
        g600 = naive_breakdown(spec, 50, 600, machine=machine).get("Gram")
        assert g216 == pytest.approx(g600)

    def test_hpc_gram_scales_with_p(self, machine):
        spec = paper_scale("DSYN")
        g216 = hpc_breakdown(spec, 50, 216, machine=machine).get("Gram")
        g600 = hpc_breakdown(spec, 50, 600, machine=machine).get("Gram")
        assert g600 < g216

    def test_hpc_2d_communicates_less_than_naive_on_squarish_data(self, machine):
        for dataset in ("DSYN", "SSYN", "Webbase"):
            spec = paper_scale(dataset)
            naive = naive_breakdown(spec, 50, 600, machine=machine)
            hpc2d = hpc_breakdown(spec, 50, 600, machine=machine)
            assert hpc2d.communication < naive.communication, dataset

    def test_grid_mismatch_rejected(self, machine):
        with pytest.raises(ValueError):
            hpc_breakdown(paper_scale("DSYN"), 50, 600, grid=(7, 7), machine=machine)

    def test_dispatch_by_variant(self, machine):
        # The planner prices each modeled variant with its closed form.
        problem = ProblemSpec.from_dataset(paper_scale("SSYN"), 10)
        rows = {(plan.variant, plan.grid): plan.breakdown
                for plan in plan_candidates(problem, 24, machine=machine)}
        assert rows["naive", None].get("AllReduce") == 0.0
        b1d, b2d = rows["hpc1d", (24, 1)], rows["hpc2d", choose_grid(problem.m, problem.n, 24)]
        assert b2d.communication <= b1d.communication
        spec = paper_scale("SSYN")
        assert b1d.as_dict() == hpc_breakdown(spec, 10, 24, grid=(24, 1), machine=machine).as_dict()
        assert b2d.as_dict() == hpc_breakdown(spec, 10, 24, machine=machine).as_dict()

    @pytest.mark.parametrize("variant", ["streaming", "symmetric", "regularized"])
    def test_dispatch_rejects_unmodeled_variant(self, machine, variant):
        # No analytic model: the planner refuses.
        problem = ProblemSpec.from_dataset(paper_scale("SSYN"), 10)
        with pytest.raises(ValueError, match="no registered variant can model"):
            plan_candidates(problem, 24, machine=machine, variants=[variant])

    def test_breakdowns_accept_problem_specs(self, machine):
        # The DatasetSpec adapter and a raw ProblemSpec must price identically.
        spec = paper_scale("DSYN")
        problem = ProblemSpec.from_dataset(spec, 50)
        via_dataset = hpc_breakdown(spec, 50, 600, machine=machine)
        via_problem = hpc_breakdown(problem, 50, 600, machine=machine)
        assert via_dataset.as_dict() == via_problem.as_dict()

    def test_words_per_iteration_match_section5(self):
        # Naive: (p-1)/p (m+n)k; HPC on (pr, pc): the §5 expression in
        # ledger convention (factor collectives twice, all-reduce 2x2 k²).
        m, n, k, p = 1200, 800, 10, 6
        problem = ProblemSpec(m=m, n=n, k=k)
        assert naive_words_per_iteration(problem, k, p) == pytest.approx(
            (p - 1) / p * (m + n) * k
        )
        pr, pc = 3, 2
        expected = 2.0 * (
            (pr - 1) / pr * n * k / pc + (pc - 1) / pc * m * k / pr
        ) + 4.0 * (p - 1) / p * k * k
        assert hpc_words_per_iteration(problem, k, p, grid=(pr, pc)) == pytest.approx(expected)
        assert naive_words_per_iteration(problem, k, 1) == 0.0


class TestPaperShapeClaims:
    """The qualitative conclusions of §6.4 / §6.5 must hold in the model."""

    def test_hpc2d_beats_naive_on_every_dataset_at_600_cores(self, machine):
        for dataset in ("DSYN", "SSYN", "Video", "Webbase"):
            spec = paper_scale(dataset)
            naive = naive_breakdown(spec, 50, 600, machine=machine).total
            hpc2d = hpc_breakdown(spec, 50, 600, machine=machine).total
            assert hpc2d < naive, dataset

    def test_2d_beats_1d_on_squarish_matrices(self, machine):
        for dataset in ("DSYN", "SSYN", "Webbase"):
            spec = paper_scale(dataset)
            b1d = hpc_breakdown(spec, 50, 600, grid=(600, 1), machine=machine).total
            b2d = hpc_breakdown(spec, 50, 600, machine=machine).total
            assert b2d < b1d, dataset

    def test_1d_and_2d_comparable_on_video(self, machine):
        # The Video matrix is so tall that the auto-selected grid *is* 1D and
        # both variants are computation bound (§6.4).
        spec = paper_scale("Video")
        b1d = hpc_breakdown(spec, 50, 600, grid=(600, 1), machine=machine)
        b2d = hpc_breakdown(spec, 50, 600, machine=machine)
        assert b2d.total == pytest.approx(b1d.total, rel=0.05)
        assert b1d.computation > b1d.communication

    def test_webbase_is_nls_bound_for_hpc(self, machine):
        spec = paper_scale("Webbase")
        b = hpc_breakdown(spec, 50, 600, machine=machine)
        assert b.get("NLS") > 0.5 * b.total

    def test_naive_ssyn_is_communication_bound(self, machine):
        spec = paper_scale("SSYN")
        b = naive_breakdown(spec, 10, 600, machine=machine)
        assert b.communication > b.computation

    def test_speedup_of_2d_over_naive_in_plausible_range(self, machine):
        # Paper: largest observed speedup 4.4x (SSYN, k=10); model should put
        # the Naive/2D ratio in the same "several-fold" regime, not 1.0x and
        # not 100x.
        spec = paper_scale("SSYN")
        ratio = (
            naive_breakdown(spec, 10, 600, machine=machine).total
            / hpc_breakdown(spec, 10, 600, machine=machine).total
        )
        assert 2.0 < ratio < 20.0

    def test_strong_scaling_of_hpc2d(self, machine):
        # Per-iteration time must drop substantially from 216 to 600 cores.
        spec = paper_scale("DSYN")
        t216 = hpc_breakdown(spec, 50, 216, machine=machine).total
        t600 = hpc_breakdown(spec, 50, 600, machine=machine).total
        assert t600 < t216
        assert t216 / t600 > 1.8  # paper: 2.7x over a 2.8x core increase


class TestPaperSeries:
    """The Figure-3 / Table-3 series, read off the variants' cost hooks at
    the paper's ranks and core counts (examples/scaling_study.py prints them)."""

    VARIANTS = ("naive", "hpc1d", "hpc2d")
    RANKS = (10, 20, 30, 40, 50)
    CORES = (24, 96, 216, 384, 600)
    CORES_DENSE = (216, 384, 600)  # §6: the dense datasets need 9+ nodes

    @pytest.mark.parametrize("dataset", ["DSYN", "SSYN"])
    def test_totals_increase_with_k(self, machine, dataset):
        for variant in self.VARIANTS:
            totals = [modeled(variant, dataset, k, 600, machine).total for k in self.RANKS]
            assert totals == sorted(totals) and totals[0] > 0, variant

    def test_hpc2d_beats_naive_at_every_rank(self, machine):
        for k in self.RANKS:
            naive = modeled("naive", "SSYN", k, 600, machine).total
            assert naive / modeled("hpc2d", "SSYN", k, 600, machine).total > 1.0, k

    @pytest.mark.parametrize("dataset", ["DSYN", "SSYN", "Video", "Webbase"])
    def test_hpc2d_totals_decrease_with_cores(self, machine, dataset):
        # Dense sweeps start at 216 cores, sparse ones at 24, as in Table 3.
        cores = self.CORES if paper_scale(dataset).is_sparse else self.CORES_DENSE
        totals = [modeled("hpc2d", dataset, 50, p, machine).total for p in cores]
        assert totals == sorted(totals, reverse=True)

    def test_a_cell_is_one_planner_row(self, machine):
        # `repro plan SSYN -k 10 -p 600` prints the same numbers.
        problem = ProblemSpec.from_dataset(paper_scale("SSYN"), 10)
        plans = plan_candidates(problem, 600, machine=machine, variants=self.VARIANTS)
        rows = {(plan.variant, plan.grid): plan.breakdown.total for plan in plans}
        assert rows["naive", None] == modeled("naive", "SSYN", 10, 600, machine).total
        assert rows["hpc1d", (600, 1)] == modeled("hpc1d", "SSYN", 10, 600, machine).total
        assert rows["hpc2d", (30, 20)] == modeled("hpc2d", "SSYN", 10, 600, machine).total
        keys = (("naive", None), ("hpc1d", (600, 1)), ("hpc2d", (30, 20)))
        assert [round(rows[key], 4) for key in keys] == [0.0747, 0.0580, 0.0081]


class TestTable2:
    #: DSYN at the paper's five core counts, plus Video in its tall-skinny regime.
    CASES = [(172_800, 115_200, 50, p) for p in (24, 96, 216, 384, 600)] + [
        (1_013_400, 2_400, 50, 216)
    ]

    def test_lower_bound_never_exceeds_hpc_words(self):
        for m, n, k, p in self.CASES:
            costs = table2_costs(m, n, k, p)
            assert costs["lower_bound"]["words"] <= costs["hpc"]["words"] * (1 + 1e-9)

    def test_hpc_words_improve_on_naive_words(self):
        for m, n, k, p in self.CASES:
            costs = table2_costs(m, n, k, p)
            assert costs["hpc"]["words"] < costs["naive"]["words"]

    def test_tall_skinny_case_uses_nk_words(self):
        # At 216 cores the Video matrix satisfies m/p > n, the paper's
        # tall-and-skinny regime, so the HPC word count is n·k.
        m, n, k, p = 1_013_400, 2_400, 50, 216
        costs = table2_costs(m, n, k, p)
        assert costs["hpc"]["words"] == pytest.approx(n * k)

    def test_squarish_case_uses_sqrt_bound(self):
        m, n, k, p = 172_800, 115_200, 50, 600
        costs = table2_costs(m, n, k, p)
        assert costs["hpc"]["words"] == pytest.approx(math.sqrt(m * n * k * k / p))

    def test_message_counts_are_log_p(self):
        costs = table2_costs(10_000, 10_000, 10, 64)
        assert costs["naive"]["messages"] == pytest.approx(6.0)
        assert costs["hpc"]["messages"] == pytest.approx(6.0)
