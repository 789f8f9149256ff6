"""Tests for the dataset registry and the planted low-rank generator."""

import numpy as np
import pytest

from repro.data.lowrank import planted_lowrank
from repro.data.registry import (
    DATASETS,
    PAPER_DATASETS,
    DatasetSpec,
    load_dataset,
    measured_scale,
    paper_scale,
)


class TestRegistry:
    def test_every_paper_dataset_has_both_scales(self):
        for name, (paper_key, small_key) in PAPER_DATASETS.items():
            assert paper_key in DATASETS
            assert small_key in DATASETS

    def test_paper_scale_dimensions_match_the_paper(self):
        assert (paper_scale("DSYN").m, paper_scale("DSYN").n) == (172_800, 115_200)
        assert (paper_scale("SSYN").m, paper_scale("SSYN").n) == (172_800, 115_200)
        assert (paper_scale("Video").m, paper_scale("Video").n) == (1_013_400, 2_400)
        assert paper_scale("Webbase").m == 1_000_005
        assert paper_scale("Webbase").nnz_estimate == pytest.approx(3_105_536, rel=1e-6)

    def test_paper_scale_specs_are_model_only(self):
        with pytest.raises(ValueError):
            paper_scale("DSYN").load()

    @pytest.mark.parametrize("name", ["DSYN", "SSYN", "Video", "Webbase"])
    def test_measured_scale_datasets_materialise(self, name):
        spec = measured_scale(name)
        A = spec.load()
        assert A.shape == (spec.m, spec.n)
        if spec.is_sparse:
            assert A.nnz > 0

    def test_load_dataset_by_key(self):
        A = load_dataset("dsyn-small")
        assert A.shape == (864, 576)
        with pytest.raises(KeyError):
            load_dataset("no-such-dataset")

    def test_nnz_estimate_dense(self):
        spec = DatasetSpec(name="x", kind="dense", m=10, n=20)
        assert spec.nnz_estimate == 200


class TestPlantedLowRank:
    def test_exact_rank_structure(self):
        A, W, H = planted_lowrank(30, 20, 4, seed=0, return_factors=True)
        assert np.linalg.matrix_rank(A) == 4
        np.testing.assert_allclose(A, W @ H)

    def test_nonnegative_with_noise(self):
        A = planted_lowrank(30, 20, 3, seed=1, noise_std=0.1)
        assert np.all(A >= 0)

    def test_noise_added_in_row_blocks_equals_one_full_size_draw(self, monkeypatch):
        """The in-place, blocked noise is the same stream as the three-array
        form ``max(A + normal(size=A.shape), 0)`` — at an odd block size too."""
        import repro.data.lowrank as lowrank

        m, n, k, seed, std = 1000, 700, 6, 5, 0.05
        rng = np.random.default_rng(seed)
        clean = rng.random((m, k)) @ rng.random((k, n))
        reference = np.maximum(clean + rng.normal(0.0, std, size=clean.shape), 0.0)
        np.testing.assert_array_equal(planted_lowrank(m, n, k, seed=seed, noise_std=std), reference)
        monkeypatch.setattr(lowrank, "_NOISE_BLOCK_ROWS", 37)
        np.testing.assert_array_equal(planted_lowrank(m, n, k, seed=seed, noise_std=std), reference)

    def test_factors_are_dense_uniform_draws(self):
        A, W, H = planted_lowrank(200, 150, 5, seed=2, return_factors=True)
        rng = np.random.default_rng(2)
        np.testing.assert_array_equal(W, rng.random((200, 5)))
        np.testing.assert_array_equal(H, rng.random((5, 150)))
        np.testing.assert_array_equal(A, W @ H)
        with pytest.raises(TypeError, match="sparsity"):
            planted_lowrank(200, 150, 5, seed=2, sparsity=0.5)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            planted_lowrank(15, 10, 2, seed=3), planted_lowrank(15, 10, 2, seed=3)
        )
