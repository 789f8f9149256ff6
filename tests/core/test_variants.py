"""Tests for the variant table and the ``repro.fit`` front door."""

import inspect

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.comm.profiler import TaskCategory
from repro.core.api import NMF, fit
from repro.core.config import NMFConfig
from repro.core.regularized import Regularization
from repro.core.symmetric import SymNMFResult
from repro.core.variants import VARIANTS, available_variants, get_variant
from repro.data.lowrank import planted_lowrank
from repro.util.errors import ShapeError

ALL_VARIANTS = ["hpc1d", "hpc2d", "naive", "regularized", "sequential", "symmetric"]

#: A value for every option some row lists.
OPTION_VALUES = {
    "regularization": Regularization(frobenius=0.1),
    "frobenius": 0.1,
    "l1": 0.1,
    "alpha": 2.0,
}


def _matrix():
    return planted_lowrank(24, 18, 2, seed=0, noise_std=0.02)


class TestRegistry:
    def test_six_builtin_variants_registered(self):
        assert available_variants() == ALL_VARIANTS == sorted(VARIANTS)

    def test_get_variant_returns_singleton(self):
        assert get_variant("hpc2d") is get_variant("HPC2D") is VARIANTS["hpc2d"]

    def test_unknown_variant_lists_available(self):
        with pytest.raises(KeyError, match="hpc2d"):
            get_variant("definitely-not-a-variant")

    def test_the_streaming_row_is_gone(self):
        """StreamingNMF is driven directly (the example, the refresher); as a
        fit variant it is an unknown name, and the error lists the rest."""
        with pytest.raises(KeyError, match=r"unknown variant 'streaming'.*'symmetric'"):
            fit(_matrix(), 2, variant="streaming")

    def test_capability_flags(self):
        assert get_variant("hpc2d").parallelizable
        assert get_variant("naive").parallelizable
        assert not get_variant("sequential").parallelizable
        assert get_variant("regularized").parallelizable
        assert not get_variant("symmetric").parallelizable

    def test_options_are_listed_per_row(self):
        assert get_variant("symmetric").options == ("alpha",)
        assert get_variant("regularized").options == ("regularization", "frobenius", "l1")
        assert get_variant("hpc2d").options == ()

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_options_are_the_keywords_run_takes(self, name):
        row = VARIANTS[name]
        params = list(inspect.signature(row.run).parameters)
        assert params[:3] == ["A", "config", "observers"]
        assert tuple(params[3:]) == row.options


class TestVariantMatrix:
    """One cell per row of the table and per promise the front door makes."""

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_two_ranks_raise_iff_not_parallelizable(self, name):
        row = VARIANTS[name]
        if row.parallelizable:
            res = fit(_matrix(), 2, variant=name, n_ranks=2, max_iters=2, seed=3)
            assert (res.variant, res.n_ranks) == (name, 2)
        else:
            with pytest.raises(ShapeError, match=f"{name!r} is sequential-only"):
                fit(_matrix(), 2, variant=name, n_ranks=2, max_iters=2, seed=3)

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_sparse_input_is_accepted(self, name):
        A = sp.csr_matrix(_matrix())
        assert fit(A, 2, variant=name, max_iters=2, seed=3).variant == name

    @pytest.mark.parametrize(
        "name, option",
        [(name, option) for name in sorted(VARIANTS) for option in VARIANTS[name].options],
    )
    def test_each_listed_option_is_accepted(self, name, option):
        res = fit(_matrix(), 2, variant=name, max_iters=2, seed=3,
                  **{option: OPTION_VALUES[option]})
        assert res.variant == name

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_an_unlisted_option_names_the_variant_and_the_option(self, name):
        with pytest.raises(TypeError, match=f"{name!r} does not accept option.*bogus_knob"):
            fit(_matrix(), 2, variant=name, max_iters=2, bogus_knob=1)


class TestFitFrontDoor:
    def test_default_variant_is_sequential(self):
        res = fit(_matrix(), 2, max_iters=3, seed=1)
        assert res.variant == "sequential"
        assert res.n_ranks == 1
        assert res.backend is None

    def test_default_variant_with_ranks_is_hpc2d(self):
        res = fit(_matrix(), 2, n_ranks=4, max_iters=3, seed=1)
        assert res.variant == "hpc2d"
        assert res.n_ranks == 4

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_every_variant_runs_through_one_code_path(self, variant):
        A = _matrix()
        n_ranks = 2 if get_variant(variant).parallelizable else None
        res = fit(A, 2, variant=variant, n_ranks=n_ranks, max_iters=3, seed=3)
        assert res.variant == variant
        assert res.iterations >= 1
        assert np.all(res.W >= 0) and np.all(res.H >= 0)

    def test_k_config_mismatch_raises(self):
        with pytest.raises(ShapeError, match="rank mismatch"):
            fit(_matrix(), 3, config=NMFConfig(k=2))

    def test_matching_or_omitted_k_with_config(self):
        cfg = NMFConfig(k=2, max_iters=2, seed=1)
        by_both = fit(_matrix(), 2, config=cfg)
        by_config = fit(_matrix(), config=cfg)
        assert by_both.W.tobytes() == by_config.W.tobytes()

    def test_missing_k_raises(self):
        with pytest.raises(ShapeError, match="target rank"):
            fit(_matrix())

    def test_unknown_extra_option_names_variant(self):
        with pytest.raises(TypeError, match="hpc2d.*alpha"):
            fit(_matrix(), 2, variant="hpc2d", n_ranks=2, alpha=1.0)

    def test_algorithm_keyword_is_an_unknown_option(self):
        # variant= is the only spelling; the removed algorithm= keyword is
        # rejected like any other typo, never silently ignored.  So is the
        # removed storage= (a block's storage follows the input).
        for option, value in (("algorithm", "naive"), ("storage", "memmap")):
            with pytest.raises(TypeError, match=f"does not accept option.*{option}"):
                fit(_matrix(), 2, n_ranks=2, max_iters=2, **{option: value})

    def test_conflicting_algorithm_and_variant_raise(self):
        with pytest.raises(TypeError, match="hpc2d.*algorithm"):
            fit(_matrix(), 2, variant="hpc2d", n_ranks=2, algorithm="naive")

    def test_symmetric_honours_tol_and_compute_error(self):
        A = _matrix()
        early = fit(A, 2, variant="symmetric", max_iters=200, tol=1e-3, seed=1)
        assert early.converged
        assert early.iterations < 200
        silent = fit(A, 2, variant="symmetric", max_iters=3, compute_error=False)
        assert silent.history == []
        assert silent.iterations == 3

    def test_in_process_extension_reports_a_breakdown(self):
        res = fit(_matrix(), 2, variant="symmetric", max_iters=4, seed=1)
        assert res.breakdown.total > 0
        assert res.breakdown.get(TaskCategory.NLS) > 0
        assert res.breakdown.get(TaskCategory.MM) > 0

    def test_symmetric_runs_the_configured_iterative_solver(self):
        res = fit(_matrix(), 2, variant="symmetric", solver="hals", max_iters=2)
        assert res.config.solver == res.solver == "hals"
        with pytest.raises(TypeError, match="inner_iters"):
            fit(_matrix(), 2, variant="symmetric", solver="hals", inner_iters=3)

    def test_sequential_only_variant_rejects_ranks(self):
        with pytest.raises(ShapeError, match="sequential-only"):
            fit(_matrix(), 2, variant="symmetric", n_ranks=4)

    def test_symmetric_on_rectangular_uses_column_similarity(self):
        A = _matrix()  # 24 x 18
        res = fit(A, 2, variant="symmetric", max_iters=3, seed=1)
        assert isinstance(res, SymNMFResult)
        assert res.W.shape == (18, 2)  # n x k: clusters of the 18 columns
        assert res.labels.shape == (18,)

    def test_variant_specific_options_flow_through(self):
        A = _matrix()
        plain = fit(A, 2, variant="regularized", max_iters=4, seed=2)
        sparse_factors = fit(A, 2, variant="regularized", l1=1.0, max_iters=4, seed=2)
        zero_plain = np.mean(plain.H < 1e-10)
        zero_l1 = np.mean(sparse_factors.H < 1e-10)
        assert zero_l1 >= zero_plain

    def test_top_level_exports(self):
        assert repro.fit is fit
        assert repro.NMF is NMF
        assert "sequential" in repro.available_variants()


class TestEstimator:
    def test_fit_stores_result_and_returns_self(self):
        A = _matrix()
        model = NMF(k=2, max_iters=3, seed=1)
        assert model.fit(A) is model
        assert model.W_.shape == (24, 2)
        assert model.components_.shape == (2, 18)
        assert model.components_ is model.result_.H
        assert model.result_.variant == "sequential"

    def test_fit_transform_returns_w(self):
        A = _matrix()
        W = NMF(k=2, max_iters=3, seed=1).fit_transform(A)
        assert W.shape == (24, 2)
        assert np.all(W >= 0)

    def test_transform_projects_new_columns(self):
        A = _matrix()
        model = NMF(k=2, max_iters=5, seed=1).fit(A)
        H_new = model.transform(A[:, :5])
        assert H_new.shape == (2, 5)
        assert np.all(H_new >= 0)

    @pytest.mark.parametrize("solver", ["bpp", "hals", "mu"])
    def test_transform_is_the_served_projection(self, solver):
        """One projection path: exact BPP whatever solver fitted the model,
        byte for byte what ``repro serve`` answers, dense or sparse."""
        from repro.serve.project import project

        A = np.abs(np.random.default_rng(0).standard_normal((60, 40)))
        model = NMF(k=5, solver=solver, max_iters=30, seed=0).fit(A)
        assert model.transform(A).tobytes() == project(model.W_, A).tobytes()
        sparse = sp.csr_matrix(A)
        H = model.transform(sparse)
        assert H.tobytes() == project(model.W_, sparse).tobytes()
        np.testing.assert_allclose(H, model.transform(A), rtol=1e-9, atol=1e-12)

    def test_transform_shape_mismatch_raises(self):
        model = NMF(k=2, max_iters=2, seed=1).fit(_matrix())
        with pytest.raises(ShapeError, match="rows"):
            model.transform(np.ones((7, 3)))

    def test_unfitted_access_raises(self):
        with pytest.raises(ShapeError, match="not fitted"):
            NMF(k=2).W_

    def test_estimator_parallel_variant(self):
        model = NMF(k=2, variant="hpc2d", n_ranks=4, backend="lockstep",
                    max_iters=3, seed=2).fit(_matrix())
        assert model.result_.variant == "hpc2d"
        assert model.result_.backend == "lockstep"
        assert model.result_.n_ranks == 4
