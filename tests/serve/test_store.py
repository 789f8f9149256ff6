"""ModelStore: load/validate artifacts, versioned hot swap, cache lifetimes."""

import numpy as np
import pytest

from repro.core.api import fit
from repro.core.config import NMFConfig
from repro.core.result import NMFResult
from repro.data.lowrank import planted_lowrank
from repro.nls import resolve_kernel
from repro.serve import ModelLoadError, ModelNotFoundError, ModelStore


def _result(seed=0, m=40, k=3, n=10):
    rng = np.random.default_rng(seed)
    return NMFResult(
        W=np.abs(rng.standard_normal((m, k))) + 0.01,
        H=np.abs(rng.standard_normal((k, n))),
        config=NMFConfig(k=k, seed=seed),
        iterations=2,
    )


@pytest.fixture()
def saved_model(tmp_path):
    res = fit(planted_lowrank(40, 30, 3, seed=0, noise_std=0.02), 3,
              max_iters=3, seed=1)
    return res.save(tmp_path / "model.npz")


class TestLoading:
    def test_load_from_file(self, saved_model):
        store = ModelStore()
        entry = store.load(saved_model)
        assert entry.name == "model"
        assert entry.version == 1
        assert entry.m == 40 and entry.k == 3
        assert store.names() == ["model"] and len(store) == 1

    def test_load_with_explicit_name(self, saved_model):
        entry = ModelStore().load(saved_model, name="prod")
        assert entry.name == "prod"

    def test_bare_name_resolves_against_root(self, saved_model):
        store = ModelStore(root=saved_model.parent)
        assert store.load("model.npz").name == "model"

    def test_load_all(self, saved_model):
        store = ModelStore(root=saved_model.parent)
        entries = store.load_all()
        assert [e.name for e in entries] == ["model"]

    def test_load_all_requires_root(self):
        with pytest.raises(ModelLoadError, match="no root"):
            ModelStore().load_all()

    def test_load_all_empty_dir(self, tmp_path):
        with pytest.raises(ModelLoadError, match="no .*npz"):
            ModelStore(root=tmp_path).load_all()

    def test_missing_file_raises_model_load_error(self, tmp_path):
        with pytest.raises(ModelLoadError, match="nope"):
            ModelStore().load(tmp_path / "nope.npz")

    def test_a_refreshed_models_artifact_loads_and_projects(self, tmp_path):
        """The refresher publishes results whose variant is "streaming", a name
        the variant table no longer has; saved, such a model still serves."""
        from repro.serve import project

        refreshed = _result()
        refreshed.variant = "streaming"
        entry = ModelStore().load(refreshed.save(tmp_path / "refreshed.npz"))
        assert entry.result.variant == entry.metadata["variant"] == "streaming"
        X = np.abs(np.random.default_rng(1).standard_normal((40, 2)))
        H = project(entry.W, X, gram=entry.gram)
        assert H.tobytes() == project(refreshed.W, X).tobytes()

    def test_add_in_memory_result(self):
        store = ModelStore()
        entry = store.swap("mem", _result())
        assert entry.source is None
        assert store.get("mem") is entry


class TestValidation:
    def test_negative_basis_rejected(self):
        res = _result()
        res.W[0, 0] = -1.0
        with pytest.raises(ModelLoadError, match="negative"):
            ModelStore().swap("bad", res)

    def test_nonfinite_basis_rejected(self):
        res = _result()
        res.W[1, 1] = np.nan
        with pytest.raises(ModelLoadError, match="non-finite"):
            ModelStore().swap("bad", res)

    def test_basis_whose_gram_overflows_rejected(self):
        """Finite, nonnegative entries near 1e160 square past the float range:
        the Gram is refused by name, not served as inf."""
        res = _result()
        res.W = np.abs(np.random.default_rng(3).standard_normal((40, 3))) * 1e160
        assert np.isfinite(res.W).all()
        with pytest.raises(ModelLoadError, match="'huge'.*WᵀW overflows"):
            ModelStore().swap("huge", res)

    def test_zero_column_rejected(self):
        res = _result()
        res.W[:, 2] = 0.0
        with pytest.raises(ModelLoadError, match="column 2"):
            ModelStore().swap("bad", res)

    def test_failed_registration_leaves_store_unchanged(self):
        store = ModelStore()
        store.swap("good", _result())
        bad = _result()
        bad.W[:, 0] = 0.0
        with pytest.raises(ModelLoadError):
            store.swap("other", bad)
        assert store.names() == ["good"]


class TestEntry:
    def test_gram_cached_and_frozen_and_checked_at_load(self):
        entry = ModelStore().swap("m", _result())
        assert np.array_equal(entry.gram, entry.W.T @ entry.W)
        assert not entry.W.flags.writeable
        assert not entry.gram.flags.writeable
        # The load-time Cholesky of the ridge-stabilised Gram refuses a basis
        # whose columns are numerically dependent: two equal columns at a
        # scale where the ridge underflows.  The same basis without the
        # repeated column is accepted, so the dependence is what is refused.
        independent = _result()
        independent.W *= 1e-160
        ModelStore().swap("tiny", independent)
        dependent = _result()
        dependent.W[:, 1] = dependent.W[:, 0]
        dependent.W *= 1e-160
        with pytest.raises(ModelLoadError, match="numerically dependent"):
            ModelStore().swap("bad", dependent)

    def test_solver_for_memoises_per_kernel(self):
        entry = ModelStore().swap("m", _result())
        a = entry.solver_for("scalar")
        assert entry.solver_for("scalar") is a
        assert entry.solver_for("batched") is not a
        # one engine, one pattern cache: None / "auto" resolve before memoising
        assert entry.solver_for(None) is entry.solver_for(resolve_kernel(None))
        assert entry.solver_for(None).kernel.name == "batched"
        assert entry.solver_for("auto") is entry.solver_for(resolve_kernel("auto"))
        # persistent pattern cache enabled: repeated solves reuse factors
        for cold in (True, False):
            a.solve(np.asarray(entry.gram), np.abs(np.ones((entry.k, 2))))
            assert (a.last_state.extra["cholesky_flops"] > 0) is cold

    def test_describe_carries_model_metadata(self):
        entry = ModelStore().swap("m", _result())
        desc = entry.describe()
        assert desc["name"] == "m"
        assert desc["version"] == 1
        assert desc["k"] == 3 and desc["m"] == 40


class TestHotSwap:
    def test_swap_bumps_version_and_rebuilds_caches(self):
        store = ModelStore()
        first = store.swap("m", _result(seed=0))
        warm = first.solver_for("scalar")
        rhs = np.abs(np.ones((first.k, 1)))
        warm.solve(np.asarray(first.gram), rhs)
        assert warm.last_state.extra["cholesky_flops"] > 0

        second = store.swap("m", _result(seed=1))
        assert second.version == 2
        assert store.get("m") is second
        # fresh entry, fresh solver, empty pattern cache: the Gram changed
        assert second.solver_for("scalar") is not warm
        second.solver_for("scalar").solve(np.asarray(second.gram), rhs)
        assert second.solver_for("scalar").last_state.extra["cholesky_flops"] > 0
        # the old entry still serves any in-flight batch that resolved it
        assert first.version == 1
        assert not first.W.flags.writeable

    def test_reload_reads_the_backing_file(self, saved_model):
        store = ModelStore()
        store.load(saved_model, name="m")
        entry = store.reload("m")
        assert entry.version == 2
        assert entry.source == saved_model

    def test_reload_of_corrupt_file_keeps_old_version(self, saved_model):
        store = ModelStore()
        old = store.load(saved_model, name="m")
        saved_model.write_bytes(b"garbage")
        with pytest.raises(ModelLoadError):
            store.reload("m")
        assert store.get("m") is old

    def test_reload_of_in_memory_model_errors(self):
        store = ModelStore()
        store.swap("mem", _result())
        with pytest.raises(ModelLoadError, match="no backing"):
            store.reload("mem")


class TestInstall:
    """A worker process takes its primary's versions as they were built."""

    def _pushed(self, entry):
        from repro.comm.wire import decode_frame, encode_frame

        _, copy = decode_frame(encode_frame("install", entry))
        return copy

    def test_a_pushed_entry_keeps_its_bytes_and_starts_with_empty_caches(self):
        primary, worker = ModelStore(), ModelStore()
        worker.swap("m", _result(seed=0))
        entry = primary.swap("m", _result(seed=1))
        entry.solver_for("batched")
        primary.swap("m", _result(seed=2))
        newest = primary.get("m")
        installed = worker.install(self._pushed(newest))
        assert worker.get("m") is installed and installed.version == 2
        for name in ("W", "gram"):
            array = getattr(installed, name)
            assert array.tobytes() == getattr(newest, name).tobytes()
            assert not array.flags.writeable
        assert installed._solvers == {}
        assert installed.metadata.keys() == newest.metadata.keys()

    def test_a_pushed_entry_leaves_the_fitted_result_behind(self):
        from repro.comm.wire import encode_frame

        entry = ModelStore().swap("m", _result(n=20_000))
        frame = encode_frame("install", entry)
        assert len(frame) < entry.result.H.nbytes // 4
        assert self._pushed(entry).result is None

    def test_an_older_version_never_replaces_a_newer_one(self):
        primary, worker = ModelStore(), ModelStore()
        first = primary.swap("m", _result(seed=0))
        second = primary.swap("m", _result(seed=1))
        worker.install(self._pushed(second))
        assert worker.install(self._pushed(first)).version == 2
        assert worker.get("m").W.tobytes() == second.W.tobytes()


class TestLookup:
    def test_unknown_name_lists_known_models(self):
        store = ModelStore()
        store.swap("a", _result())
        with pytest.raises(ModelNotFoundError) as exc_info:
            store.get("b")
        assert "'b'" in str(exc_info.value)
        assert "a" in str(exc_info.value)

    def test_describe_lists_sorted(self):
        store = ModelStore()
        store.swap("beta", _result())
        store.swap("alpha", _result())
        assert [d["name"] for d in store.describe()] == ["alpha", "beta"]
