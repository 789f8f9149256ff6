"""Projection engine: validation, byte-identity contract, incremental refresh."""

import numpy as np
import pytest

from repro.core.config import NMFConfig
from repro.core.result import NMFResult
from repro.nls.bpp import BlockPrincipalPivoting
from repro.nls.kernels import available_kernels
from repro.serve import (
    ModelRefresher,
    ModelStore,
    ProjectionRequestError,
    project,
    project_blocks,
    projection_residuals,
    validate_columns,
)
from repro.util.errors import ModelLoadError

RNG = np.random.default_rng(3)
M, K = 60, 4
W = np.abs(RNG.standard_normal((M, K))) + 0.01


class TestValidateColumns:
    def test_single_column_becomes_2d(self):
        out = validate_columns(np.ones(M), M)
        assert out.shape == (M, 1)
        assert out.dtype == np.float64

    def test_block_passes_through(self):
        X = np.abs(RNG.standard_normal((M, 3)))
        assert validate_columns(X, M).shape == (M, 3)

    def test_list_input_converted(self):
        assert validate_columns([1.0] * M, M).shape == (M, 1)

    def test_wrong_length_rejected(self):
        with pytest.raises(ProjectionRequestError, match=f"expects {M} features"):
            validate_columns(np.ones(M + 1), M)

    def test_non_numeric_rejected(self):
        with pytest.raises(ProjectionRequestError, match="real-numeric"):
            validate_columns(["a"] * M, M)

    @pytest.mark.parametrize("value", ["1.5", None, True], ids=["string", "none", "bool"])
    def test_strings_none_and_booleans_are_not_numbers(self, value):
        with pytest.raises(ProjectionRequestError, match="real-numeric"):
            validate_columns([value] * M, M)

    def test_3d_rejected(self):
        with pytest.raises(ProjectionRequestError, match="3-D"):
            validate_columns(np.ones((2, 2, 2)), M)

    def test_empty_batch_rejected(self):
        with pytest.raises(ProjectionRequestError, match="empty"):
            validate_columns(np.empty((M, 0)), M)

    def test_nan_names_the_bad_column(self):
        X = np.ones((M, 3))
        X[5, 2] = np.nan
        with pytest.raises(ProjectionRequestError, match="column 2"):
            validate_columns(X, M)

    def test_inf_rejected(self):
        X = np.ones((M, 1))
        X[0, 0] = np.inf
        with pytest.raises(ProjectionRequestError, match="NaN or Inf"):
            validate_columns(X, M)


class TestProject:
    def test_projection_is_nonnegative_and_shaped(self):
        X = np.abs(RNG.standard_normal((M, 5)))
        H = project(W, X)
        assert H.shape == (K, 5)
        assert (H >= 0).all()

    def test_in_model_columns_recovered(self):
        H_true = 0.5 + np.abs(RNG.standard_normal((K, 4)))
        H = project(W, W @ H_true)
        assert np.allclose(H, H_true, rtol=1e-6, atol=1e-8)

    def test_1d_input_accepted(self):
        assert project(W, np.abs(RNG.standard_normal(M))).shape == (K, 1)

    def test_cached_gram_matches_fresh(self):
        X = np.abs(RNG.standard_normal((M, 3)))
        a = project(W, X)
        b = project(W, X, gram=W.T @ W)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kernel", available_kernels())
    def test_kernels_agree_bitwise(self, kernel):
        X = np.abs(RNG.standard_normal((M, 6)))
        assert (project(W, X, kernel=kernel).tobytes()
                == project(W, X, kernel="scalar").tobytes())


class TestByteIdentityContract:
    """Co-batching must be invisible: pinned at the project_blocks level."""

    @pytest.mark.parametrize("kernel", available_kernels())
    def test_block_in_batch_equals_block_alone(self, kernel):
        solver = BlockPrincipalPivoting(kernel=kernel, persistent_cache=True)
        blocks = [np.abs(RNG.standard_normal((M, c))) for c in (1, 3, 2, 1)]
        batched = project_blocks(W, blocks, solver=solver)
        offset = 0
        for block in blocks:
            c = block.shape[1]
            alone = project(W, block, kernel="scalar")
            assert batched[:, offset:offset + c].tobytes() == alone.tobytes()
            offset += c

    def test_identity_survives_warm_persistent_cache(self):
        solver = BlockPrincipalPivoting(kernel="batched", persistent_cache=True)
        block = np.abs(RNG.standard_normal((M, 2)))
        strangers = [np.abs(RNG.standard_normal((M, 4))) for _ in range(3)]
        alone = project(W, block, kernel="scalar")
        for stranger in strangers:  # different co-batches, same answer
            batched = project_blocks(W, [stranger, block], solver=solver)
            assert batched[:, 4:].tobytes() == alone.tobytes()


class TestResiduals:
    def test_exact_columns_have_zero_residual(self):
        H_true = 0.5 + np.abs(RNG.standard_normal((K, 3)))
        X = W @ H_true
        res = projection_residuals(W, X, project(W, X))
        assert res.shape == (3,)
        assert (res < 1e-7).all()

    def test_zero_column_has_zero_residual(self):
        X = np.zeros((M, 1))
        res = projection_residuals(W, X, project(W, X))
        assert res[0] == 0.0

    def test_residual_is_relative(self):
        X = np.abs(RNG.standard_normal((M, 2)))
        H = project(W, X)
        expected = np.linalg.norm(X - W @ H, axis=0) / np.linalg.norm(X, axis=0)
        assert np.allclose(projection_residuals(W, X, H), expected)


class TestModelRefresher:
    def _store(self):
        store = ModelStore()
        store.swap("m", NMFResult(
            W=W.copy(), H=np.abs(RNG.standard_normal((K, 8))),
            config=NMFConfig(k=K, seed=0), iterations=2,
        ))
        return store

    def test_ingest_counts_columns(self):
        refresher = ModelRefresher(self._store(), "m", refresh_every=100)
        for _ in range(3):
            refresher.ingest(np.abs(RNG.standard_normal(M)))
        assert refresher.columns_seen == 3
        assert refresher.published_versions == []

    def test_refresh_cadence_publishes_new_version(self):
        store = self._store()
        refresher = ModelRefresher(store, "m", window=8, refresh_every=4)
        for _ in range(8):
            refresher.ingest(np.abs(RNG.standard_normal(M)))
        assert refresher.published_versions == [2, 3]
        entry = store.get("m")
        assert entry.version == 3
        assert entry.result.variant == "streaming"
        # the published basis still validates (nonnegative, no dead columns)
        assert (entry.W >= 0).all()

    def test_negative_entries_stream_through_a_refresh(self):
        store = self._store()
        refresher = ModelRefresher(store, "m", window=8, refresh_every=4)
        for _ in range(4):
            column = np.abs(RNG.standard_normal(M))
            column[::7] *= -1.0
            refresher.ingest(column)
        assert refresher.published_versions == [2]
        assert (store.get("m").W >= 0).all()

    @pytest.mark.parametrize("solver", [
        "bpp",
        # HALS zeroes a component for good once its Gram diagonal is <= 1e-16;
        # here the refresh publishes a basis with a zero column, which the
        # store refuses.  A known defect, not the contract.
        pytest.param("hals", marks=pytest.mark.xfail(strict=True, raises=ModelLoadError)),
        "mu",
    ])
    def test_a_refresh_runs_the_models_solver_and_records_it(self, solver):
        store = ModelStore()
        store.swap("m", NMFResult(
            W=W.copy(), H=np.abs(RNG.standard_normal((K, 8))),
            config=NMFConfig(k=K, seed=0, solver=solver), iterations=2,
        ))
        refresher = ModelRefresher(store, "m", window=8, refresh_every=4)
        for _ in range(4):
            refresher.ingest(np.abs(RNG.standard_normal(M)))
        refreshed = store.get("m").result
        assert refresher.published_versions == [2]
        assert refreshed.solver == refreshed.config.solver == solver
        assert (refreshed.W >= 0).all() and not np.array_equal(refreshed.W, W)

    def test_ingest_rejects_blocks(self):
        refresher = ModelRefresher(self._store(), "m")
        with pytest.raises(ProjectionRequestError, match="exactly one column"):
            refresher.ingest(np.abs(RNG.standard_normal((M, 2))))

    def test_ingest_validates_length(self):
        refresher = ModelRefresher(self._store(), "m")
        with pytest.raises(ProjectionRequestError, match="features"):
            refresher.ingest(np.ones(M + 1))

    def test_checkpoint_every_writes_npz(self, tmp_path):
        refresher = ModelRefresher(
            self._store(), "m", refresh_every=100,
            checkpoint_every=2,
            checkpoint_template=str(tmp_path / "ckpt_{iteration:03d}.npz"),
        )
        for _ in range(5):
            refresher.ingest(np.abs(RNG.standard_normal(M)))
        paths = sorted(tmp_path.glob("ckpt_*.npz"))
        assert [path.name for path in paths] == ["ckpt_001.npz", "ckpt_003.npz"]
        with np.load(paths[0]) as data:
            assert data["W"].shape == (M, K)

    def test_checkpoint_every_requires_template(self):
        with pytest.raises(ValueError, match="template"):
            ModelRefresher(self._store(), "m", checkpoint_every=2)
