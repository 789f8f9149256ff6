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

M, K = 60, 4
W = np.abs(np.random.default_rng(3).standard_normal((M, K))) + 0.01


@pytest.fixture
def rng():
    """A fresh generator per test: no test's data depends on which ran before."""
    return np.random.default_rng(11)


class TestValidateColumns:
    def test_single_column_becomes_2d(self):
        out = validate_columns(np.ones(M), M)
        assert out.shape == (M, 1)
        assert out.dtype == np.float64

    def test_block_passes_through(self, rng):
        X = np.abs(rng.standard_normal((M, 3)))
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
    def test_projection_is_nonnegative_and_shaped(self, rng):
        X = np.abs(rng.standard_normal((M, 5)))
        H = project(W, X)
        assert H.shape == (K, 5)
        assert (H >= 0).all()

    def test_in_model_columns_recovered(self, rng):
        H_true = 0.5 + np.abs(rng.standard_normal((K, 4)))
        H = project(W, W @ H_true)
        assert np.allclose(H, H_true, rtol=1e-6, atol=1e-8)

    def test_1d_input_accepted(self, rng):
        assert project(W, np.abs(rng.standard_normal(M))).shape == (K, 1)

    def test_cached_gram_matches_fresh(self, rng):
        X = np.abs(rng.standard_normal((M, 3)))
        a = project(W, X)
        b = project(W, X, gram=W.T @ W)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kernel", available_kernels())
    def test_kernels_agree_bitwise(self, rng, kernel):
        X = np.abs(rng.standard_normal((M, 6)))
        assert (project(W, X, kernel=kernel).tobytes()
                == project(W, X, kernel="scalar").tobytes())


class TestByteIdentityContract:
    """Co-batching must be invisible: pinned at the project_blocks level."""

    @pytest.mark.parametrize("kernel", available_kernels())
    def test_block_in_batch_equals_block_alone(self, rng, kernel):
        solver = BlockPrincipalPivoting(kernel=kernel, persistent_cache=True)
        blocks = [np.abs(rng.standard_normal((M, c))) for c in (1, 3, 2, 1)]
        batched = project_blocks(W, blocks, solver=solver)
        offset = 0
        for block in blocks:
            c = block.shape[1]
            alone = project(W, block, kernel="scalar")
            assert batched[:, offset:offset + c].tobytes() == alone.tobytes()
            offset += c

    def test_identity_survives_warm_persistent_cache(self, rng):
        solver = BlockPrincipalPivoting(kernel="batched", persistent_cache=True)
        block = np.abs(rng.standard_normal((M, 2)))
        strangers = [np.abs(rng.standard_normal((M, 4))) for _ in range(3)]
        alone = project(W, block, kernel="scalar")
        for stranger in strangers:  # different co-batches, same answer
            batched = project_blocks(W, [stranger, block], solver=solver)
            assert batched[:, 4:].tobytes() == alone.tobytes()


class TestResiduals:
    def test_exact_columns_have_zero_residual(self, rng):
        H_true = 0.5 + np.abs(rng.standard_normal((K, 3)))
        X = W @ H_true
        res = projection_residuals(W, X, project(W, X))
        assert res.shape == (3,)
        assert (res < 1e-7).all()

    def test_zero_column_has_zero_residual(self):
        X = np.zeros((M, 1))
        res = projection_residuals(W, X, project(W, X))
        assert res[0] == 0.0

    def test_residual_is_relative(self, rng):
        X = np.abs(rng.standard_normal((M, 2)))
        H = project(W, X)
        expected = np.linalg.norm(X - W @ H, axis=0) / np.linalg.norm(X, axis=0)
        assert np.allclose(projection_residuals(W, X, H), expected)


def _deployed(rng, solver="bpp"):
    store = ModelStore()
    store.swap("m", NMFResult(
        W=W.copy(), H=np.abs(rng.standard_normal((K, 8))),
        config=NMFConfig(k=K, seed=0, solver=solver), iterations=2,
    ))
    return store


def _signed_column(rng):
    column = np.abs(rng.standard_normal(M))
    column[::7] *= -1.0
    return column


class TestModelRefresher:
    def test_ingest_counts_columns(self, rng):
        refresher = ModelRefresher(_deployed(rng), "m", refresh_every=100)
        for _ in range(3):
            refresher.ingest(np.abs(rng.standard_normal(M)))
        assert refresher.columns_seen == 3
        assert refresher.published_versions == []

    def test_refresh_cadence_publishes_new_version(self, rng):
        store = _deployed(rng)
        refresher = ModelRefresher(store, "m", refresh_every=4)
        for _ in range(8):
            refresher.ingest(np.abs(rng.standard_normal(M)))
        assert refresher.published_versions == [2, 3]
        entry = store.get("m")
        assert entry.version == 3
        assert entry.result.variant == "streaming"
        # the published basis still validates (nonnegative, no dead columns)
        assert (entry.W >= 0).all()

    def test_negative_entries_stream_through_a_refresh(self, rng):
        store = _deployed(rng)
        refresher = ModelRefresher(store, "m", refresh_every=4)
        for _ in range(4):
            refresher.ingest(_signed_column(rng))
        assert refresher.published_versions == [2]
        assert (store.get("m").W >= 0).all()

    def test_a_dead_refreshed_column_keeps_the_deployed_one(self):
        """Generator 13 is a case where no window column uses component 1 (row
        1 of the window's ``H`` is zero after the refresh), so BPP's W-update
        returns a zero column, which the store refuses.  The refresh publishes
        the deployed column there and a zero row of ``H``, so ``W H`` is the
        refresh's own product, and the stream goes on from that basis."""
        rng = np.random.default_rng(13)
        store = _deployed(rng)
        refresher = ModelRefresher(store, "m", refresh_every=4)
        for _ in range(3):
            refresher.ingest(_signed_column(rng))
        stream = refresher._stream
        refresh = stream._refresh
        refreshed = {}

        def capture():
            refresh()
            refreshed["W"] = stream.W.copy()

        stream._refresh = capture
        refresher.ingest(_signed_column(rng))
        assert refresher.published_versions == [2]
        dead = ~refreshed["W"].any(axis=0)
        assert dead.tolist() == [False, True, False, False]
        published = store.get("m").result
        np.testing.assert_array_equal(published.W[:, dead], W[:, dead])
        np.testing.assert_array_equal(published.W[:, ~dead], refreshed["W"][:, ~dead])
        assert not published.H[dead].any()
        np.testing.assert_array_equal(stream.W, published.W)
        # The next refresh starts from the published basis and is accepted too.
        for _ in range(4):
            refresher.ingest(np.abs(rng.standard_normal(M)))
        assert refresher.published_versions == [2, 3]

    @pytest.mark.parametrize("solver", ["bpp", "hals", "mu"])
    def test_every_refresh_of_signed_columns_is_accepted(self, solver):
        """Over many draws (generators 0-39; 13 is one of several that left a
        dead BPP column), every refresh publishes a basis the store takes."""
        for seed in range(40):
            rng = np.random.default_rng(seed)
            store = _deployed(rng, solver)
            refresher = ModelRefresher(store, "m", refresh_every=4)
            for _ in range(8):
                refresher.ingest(_signed_column(rng))
            assert refresher.published_versions == [2, 3], seed
            assert store.get("m").W.any(axis=0).all(), seed

    @pytest.mark.parametrize("solver", ["bpp", "hals", "mu"])
    def test_a_refresh_runs_the_models_solver_and_records_it(self, rng, solver):
        store = _deployed(rng, solver)
        refresher = ModelRefresher(store, "m", refresh_every=4)
        for _ in range(4):
            refresher.ingest(np.abs(rng.standard_normal(M)))
        refreshed = store.get("m").result
        assert refresher.published_versions == [2]
        assert refreshed.solver == refreshed.config.solver == solver
        assert (refreshed.W >= 0).all() and not np.array_equal(refreshed.W, W)

    def test_ingest_rejects_blocks(self, rng):
        refresher = ModelRefresher(_deployed(rng), "m")
        with pytest.raises(ProjectionRequestError, match="exactly one column"):
            refresher.ingest(np.abs(rng.standard_normal((M, 2))))

    def test_ingest_validates_length(self, rng):
        refresher = ModelRefresher(_deployed(rng), "m")
        with pytest.raises(ProjectionRequestError, match="features"):
            refresher.ingest(np.ones(M + 1))

    @pytest.mark.parametrize(
        "option", ["window", "refresh_iters", "checkpoint_every", "checkpoint_template", "seed"]
    )
    def test_the_refresh_has_one_setting(self, rng, option):
        """Only ``refresh_every`` (``repro serve --refresh-every``) is set by
        a caller; the window and the sweep count are module constants, and
        checkpoints of a served model are not the refresher's business."""
        with pytest.raises(TypeError, match=option):
            ModelRefresher(_deployed(rng), "m", **{option: 2})
