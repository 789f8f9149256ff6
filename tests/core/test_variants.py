"""Tests for the variant registry and the ``repro.fit`` front door."""

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.core.api import NMF, fit
from repro.core.config import NMFConfig
from repro.core.symmetric import SymNMFResult
from repro.core.variants import (
    Variant,
    available_variants,
    get_variant,
    register_variant,
)
from repro.core.variants.base import _REGISTRY
from repro.data.lowrank import planted_lowrank
from repro.util.errors import ShapeError

ALL_VARIANTS = ["hpc1d", "hpc2d", "naive", "regularized", "sequential", "streaming", "symmetric"]


def _matrix():
    return planted_lowrank(24, 18, 2, seed=0, noise_std=0.02)


class TestRegistry:
    def test_seven_builtin_variants_registered(self):
        assert available_variants() == ALL_VARIANTS

    def test_get_variant_returns_singleton(self):
        assert get_variant("hpc2d") is get_variant("hpc2d")

    def test_unknown_variant_lists_available(self):
        with pytest.raises(KeyError, match="hpc2d"):
            get_variant("definitely-not-a-variant")

    def test_capability_flags(self):
        assert get_variant("hpc2d").parallelizable
        assert get_variant("naive").parallelizable
        assert not get_variant("sequential").parallelizable
        assert get_variant("regularized").parallelizable
        assert get_variant("symmetric").symmetric_input
        assert get_variant("regularized").supports_regularization
        assert not get_variant("streaming").sparse_ok
        assert get_variant("hpc1d").sparse_ok

    def test_extra_options_derived_from_signature(self):
        assert set(get_variant("symmetric").extra_options()) == {"alpha"}
        assert set(get_variant("streaming").extra_options()) == {
            "window", "refresh_every", "refresh_iters"
        }
        assert get_variant("hpc2d").extra_options() == ()

    def test_custom_variant_plugs_into_fit(self):
        @register_variant
        class EchoVariant(Variant):
            name = "echo-test"
            summary = "test-only"

            def run(self, A, config, observers=()):
                from repro.core.anls import anls_nmf

                return anls_nmf(A, config, observers=observers)

        try:
            result = fit(_matrix(), 2, variant="echo-test", max_iters=2)
            assert result.iterations == 2
        finally:
            _REGISTRY.pop("echo-test", None)

    def test_register_rejects_non_variant(self):
        with pytest.raises(TypeError):
            register_variant(object)


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

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
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

    def test_symmetric_honours_inner_iters(self):
        res = fit(_matrix(), 2, variant="symmetric", solver="hals",
                  inner_iters=3, max_iters=2)
        assert res.config.inner_iters == 3

    def test_sequential_only_variant_rejects_ranks(self):
        with pytest.raises(ShapeError, match="sequential-only"):
            fit(_matrix(), 2, variant="symmetric", n_ranks=4)

    def test_sparse_rejected_by_streaming(self):
        A = sp.random(20, 16, density=0.2, random_state=0, format="csr")
        with pytest.raises(ShapeError, match="sparse"):
            fit(A, 2, variant="streaming")

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
        assert model.H_.shape == (2, 18)
        assert model.components_ is model.H_
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
