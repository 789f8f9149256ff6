"""ModelStore: load/validate artifacts, versioned hot swap, cache lifetimes."""

import numpy as np
import pytest

from repro.core.api import fit
from repro.core.config import NMFConfig
from repro.core.result import NMFResult
from repro.data.lowrank import planted_lowrank
from repro.nls import resolve_kernel
from repro.serve import ModelLoadError, ModelNotFoundError, ModelStore


def _result(seed=0, m=40, k=3):
    rng = np.random.default_rng(seed)
    return NMFResult(
        W=np.abs(rng.standard_normal((m, k))) + 0.01,
        H=np.abs(rng.standard_normal((k, 10))),
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
        assert "model" in store and len(store) == 1

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

    def test_add_in_memory_result(self):
        store = ModelStore()
        entry = store.add_result("mem", _result())
        assert entry.source is None
        assert store.get("mem") is entry


class TestValidation:
    def test_negative_basis_rejected(self):
        res = _result()
        res.W[0, 0] = -1.0
        with pytest.raises(ModelLoadError, match="negative"):
            ModelStore().add_result("bad", res)

    def test_nonfinite_basis_rejected(self):
        res = _result()
        res.W[1, 1] = np.nan
        with pytest.raises(ModelLoadError, match="non-finite"):
            ModelStore().add_result("bad", res)

    def test_zero_column_rejected(self):
        res = _result()
        res.W[:, 2] = 0.0
        with pytest.raises(ModelLoadError, match="column 2"):
            ModelStore().add_result("bad", res)

    def test_failed_registration_leaves_store_unchanged(self):
        store = ModelStore()
        store.add_result("good", _result())
        bad = _result()
        bad.W[:, 0] = 0.0
        with pytest.raises(ModelLoadError):
            store.add_result("other", bad)
        assert store.names() == ["good"]


class TestEntry:
    def test_gram_and_cholesky_cached_and_frozen(self):
        entry = ModelStore().add_result("m", _result())
        assert np.array_equal(entry.gram, entry.W.T @ entry.W)
        assert not entry.W.flags.writeable
        assert not entry.gram.flags.writeable
        assert not entry.cholesky.flags.writeable
        # the Cholesky factor reproduces the (ridge-stabilised) Gram
        rebuilt = entry.cholesky @ entry.cholesky.T
        assert np.allclose(rebuilt, entry.gram, rtol=1e-8, atol=1e-10)

    def test_solver_for_memoises_per_kernel(self):
        entry = ModelStore().add_result("m", _result())
        a = entry.solver_for("scalar")
        assert entry.solver_for("scalar") is a
        assert entry.solver_for("batched") is not a
        # one engine, one pattern cache: None / "auto" resolve before memoising
        assert entry.solver_for(None) is entry.solver_for(resolve_kernel(None))
        assert entry.solver_for(None).kernel.name == "batched"
        assert entry.solver_for("auto") is entry.solver_for(resolve_kernel("auto"))
        # persistent pattern cache enabled: repeated solves reuse factors
        assert a.cached_patterns == 0
        a.solve(np.asarray(entry.gram), np.abs(np.ones((entry.k, 2))))
        assert a.cached_patterns >= 1

    def test_describe_carries_model_metadata(self):
        entry = ModelStore().add_result("m", _result())
        desc = entry.describe()
        assert desc["name"] == "m"
        assert desc["version"] == 1
        assert desc["k"] == 3 and desc["m"] == 40


class TestHotSwap:
    def test_swap_bumps_version_and_rebuilds_caches(self):
        store = ModelStore()
        first = store.add_result("m", _result(seed=0))
        warm = first.solver_for("scalar")
        warm.solve(np.asarray(first.gram), np.abs(np.ones((first.k, 1))))
        assert warm.cached_patterns >= 1

        second = store.swap("m", _result(seed=1))
        assert second.version == 2
        assert store.get("m") is second
        # fresh entry, fresh solver, empty pattern cache: the Gram changed
        assert second.solver_for("scalar") is not warm
        assert second.solver_for("scalar").cached_patterns == 0
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
        store.add_result("mem", _result())
        with pytest.raises(ModelLoadError, match="no backing"):
            store.reload("mem")


class TestLookup:
    def test_unknown_name_lists_known_models(self):
        store = ModelStore()
        store.add_result("a", _result())
        with pytest.raises(ModelNotFoundError) as exc_info:
            store.get("b")
        assert "'b'" in str(exc_info.value)
        assert "a" in str(exc_info.value)

    def test_describe_lists_sorted(self):
        store = ModelStore()
        store.add_result("beta", _result())
        store.add_result("alpha", _result())
        assert [d["name"] for d in store.describe()] == ["alpha", "beta"]
