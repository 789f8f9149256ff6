"""Integration: ``fit(A, k, variant="auto", grid="auto")`` consults the planner.

The acceptance criteria of the planning layer: auto mode picks the
§5-optimal grid (validated against the brute-force argmin), records the
chosen plan with its predicted breakdown in the result provenance, and the
plan survives the npz round-trip.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import NMF, NMFResult, fit
from repro.comm.grid import factor_pairs
from repro.perf.machine import edison_machine
from repro.perf.model import hpc_breakdown
from repro.plan import ExecutionPlan, ProblemSpec
from repro.util.errors import ShapeError


@pytest.fixture(scope="module")
def tall():
    # m/p > n for p = 4: the paper's 1D regime.
    return np.abs(np.random.default_rng(7).standard_normal((320, 12)))


class TestAutoVariant:
    def test_tall_skinny_lands_on_1d_grid(self, tall):
        result = fit(tall, 3, variant="auto", grid="auto", n_ranks=4, max_iters=2)
        assert result.variant == "hpc2d"
        assert result.grid_shape == (4, 1)
        assert result.plan is not None
        assert result.plan.grid == (4, 1)

    def test_chosen_grid_is_brute_force_argmin(self, tall):
        result = fit(tall, 3, variant="auto", grid="auto", n_ranks=4, max_iters=2)
        machine = edison_machine()
        problem = ProblemSpec.from_matrix(tall, 3)
        brute_force = min(
            hpc_breakdown(problem, 4, grid=grid, machine=machine).total
            for grid in factor_pairs(4)
        )
        assert result.plan.breakdown.total == pytest.approx(brute_force, rel=1e-12)

    def test_plan_provenance_is_complete(self, tall):
        result = fit(
            tall, 3, variant="auto", grid="auto", n_ranks=4,
            backend="lockstep", max_iters=2,
        )
        plan = result.plan
        assert isinstance(plan, ExecutionPlan)
        assert plan.variant == result.variant
        assert plan.n_ranks == result.n_ranks == 4
        assert plan.backend == "lockstep"
        assert plan.solver == result.solver
        assert plan.machine == "edison"
        assert plan.breakdown.total > 0
        assert plan.words_per_iteration > 0
        assert (plan.problem.m, plan.problem.n) == tall.shape
        assert "plan:" in result.summary()

    def test_auto_single_rank_is_sequential(self, tall):
        result = fit(tall, 3, variant="auto", max_iters=2)
        assert result.variant == "sequential"
        assert result.plan.variant == "sequential"
        assert result.plan.grid is None

    def test_auto_matches_explicit_run(self, tall):
        auto = fit(tall, 3, variant="auto", grid="auto", n_ranks=4, max_iters=3, seed=5)
        explicit = fit(tall, 3, variant="hpc2d", grid=(4, 1), n_ranks=4, max_iters=3, seed=5)
        np.testing.assert_array_equal(auto.W, explicit.W)
        np.testing.assert_array_equal(auto.H, explicit.H)

    def test_sparse_input_plans_sparse_costs(self):
        A = sp.random(600, 90, density=0.05, format="csr", random_state=3)
        A.data = np.abs(A.data)
        result = fit(A, 3, variant="auto", grid="auto", n_ranks=2, max_iters=2)
        assert result.plan.problem.is_sparse
        assert result.plan.problem.nnz_estimate == A.nnz

    def test_explicit_runs_record_no_plan(self, tall):
        result = fit(tall, 3, variant="hpc2d", n_ranks=4, max_iters=2)
        assert result.plan is None


class TestAutoGridOnly:
    def test_fixed_variant_auto_grid(self, tall):
        result = fit(tall, 3, variant="hpc1d", grid="auto", n_ranks=4, max_iters=2)
        assert result.variant == "hpc1d"
        assert result.plan.variant == "hpc1d"
        assert result.plan.grid == (4, 1)

    def test_auto_grid_without_variant_uses_the_default_variant(self, tall):
        # grid="auto" alone must work: the n_ranks>1 default (hpc2d) is planned.
        result = fit(tall, 3, grid="auto", n_ranks=4, max_iters=2)
        assert result.variant == "hpc2d"
        assert result.plan.grid == (4, 1) == result.grid_shape

    def test_auto_variant_honours_an_explicit_grid(self, tall):
        # variant="auto" with a pinned grid must run a variant on that grid,
        # never silently drop it for a grid-free candidate.
        result = fit(tall, 3, variant="auto", grid=(2, 2), n_ranks=4, max_iters=2)
        assert result.plan.grid == (2, 2)
        assert result.grid_shape == (2, 2)

    def test_auto_variant_rejects_a_grid_that_does_not_factor_p(self, tall):
        with pytest.raises(ValueError, match="does not match p"):
            fit(tall, 3, variant="auto", grid=(3, 3), n_ranks=4, max_iters=2)

    def test_bogus_grid_string_rejected(self, tall):
        with pytest.raises(TypeError, match="auto"):
            fit(tall, 3, variant="hpc2d", grid="best", n_ranks=4, max_iters=2)

    def test_auto_requires_a_rank(self, tall):
        with pytest.raises(ShapeError, match="target rank"):
            fit(tall, variant="auto", max_iters=2)


class TestPlanRoundTrip:
    def test_plan_survives_save_load(self, tall, tmp_path):
        result = fit(tall, 3, variant="auto", grid="auto", n_ranks=4, max_iters=2)
        path = result.save(tmp_path / "auto.npz")
        restored = NMFResult.load(path)
        assert restored.plan == result.plan

    def test_planless_result_loads_with_none(self, tall, tmp_path):
        result = fit(tall, 3, variant="sequential", max_iters=2)
        path = result.save(tmp_path / "plain.npz")
        assert NMFResult.load(path).plan is None


class TestEstimatorAuto:
    def test_nmf_estimator_forwards_auto(self, tall):
        model = NMF(k=3, variant="auto", grid="auto", n_ranks=4, max_iters=2).fit(tall)
        assert model.result_.plan is not None
        assert model.result_.variant == "hpc2d"
