"""Tests for NMFResult provenance fields and the save/load npz round-trip."""

import dataclasses
import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.api import fit
from repro.core.result import NMFResult
from repro.core.symmetric import SymNMFResult
from repro.core.variants import available_variants, get_variant
from repro.data.lowrank import planted_lowrank
from repro.util.errors import SolverError


def _dense():
    return planted_lowrank(24, 18, 2, seed=0, noise_std=0.02)


def _sparse():
    return sp.random(24, 18, density=0.25, random_state=0, format="csr")


def _roundtrip(result, tmp_path, name="result.npz"):
    path = result.save(tmp_path / name)
    return NMFResult.load(path)


class TestRoundTrip:
    def test_dense_with_history(self, tmp_path):
        res = fit(_dense(), 2, max_iters=4, seed=1)
        loaded = _roundtrip(res, tmp_path)
        assert np.array_equal(loaded.W, res.W)
        assert np.array_equal(loaded.H, res.H)
        assert loaded.config == res.config
        assert loaded.iterations == res.iterations
        assert loaded.converged == res.converged
        assert len(loaded.history) == 4
        assert loaded.relative_error == res.relative_error
        assert loaded.history[0].seconds == res.history[0].seconds
        assert loaded.breakdown.as_dict() == res.breakdown.as_dict()

    def test_dense_without_history(self, tmp_path):
        res = fit(_dense(), 2, max_iters=3, compute_error=False)
        loaded = _roundtrip(res, tmp_path)
        assert loaded.history == []
        assert np.isnan(loaded.relative_error)
        assert np.array_equal(loaded.W, res.W)

    def test_sparse_input_parallel_run(self, tmp_path):
        res = fit(_sparse(), 2, variant="hpc2d", n_ranks=4, backend="lockstep",
                  max_iters=3, seed=2)
        loaded = _roundtrip(res, tmp_path)
        assert np.array_equal(loaded.W, res.W)
        assert loaded.n_ranks == 4
        assert loaded.grid_shape == res.grid_shape
        assert isinstance(loaded.grid_shape, tuple)
        assert loaded.ledger_summary == res.ledger_summary
        assert loaded.backend == "lockstep"

    def test_sparse_without_history(self, tmp_path):
        res = fit(_sparse(), 2, variant="naive", n_ranks=2, max_iters=2,
                  compute_error=False)
        loaded = _roundtrip(res, tmp_path)
        assert loaded.history == []
        assert loaded.variant == "naive"

    def test_symmetric_round_trips_to_subclass(self, tmp_path):
        res = fit(_dense(), 2, variant="symmetric", max_iters=3, seed=1)
        loaded = _roundtrip(res, tmp_path)
        assert isinstance(loaded, SymNMFResult)
        assert loaded.alpha == res.alpha
        assert np.array_equal(loaded.G, res.G)
        assert np.array_equal(loaded.labels, res.labels)

    def test_archive_without_result_class_finds_it_through_the_registry(self, tmp_path):
        """Only a result recorded as a plain NMFResult skips the registry;
        an archive saved before ``result_class`` existed still consults it."""
        res = fit(_dense(), 2, variant="symmetric", max_iters=3, seed=1)
        path = res.save(tmp_path / "old.npz")
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
        assert meta.pop("result_class") == "SymNMFResult"
        np.savez(path, W=res.W, H=res.H, meta=np.asarray(json.dumps(meta)))
        assert isinstance(NMFResult.load(path), SymNMFResult)

    def test_custom_variant_result_class_round_trips(self, tmp_path):
        # load() resolves the result class through the registry, so a
        # third-party variant with its own subclass needs no edits to load().
        from dataclasses import dataclass

        from repro.core.anls import anls_nmf
        from repro.core.variants import Variant, register_variant
        from repro.core.variants.base import _REGISTRY

        @dataclass
        class TaggedResult(NMFResult):
            tag: str = ""

        @register_variant
        class TaggedVariant(Variant):
            name = "tagged-test"
            result_class = TaggedResult

            def run(self, A, config, observers=()):
                base = anls_nmf(A, config, observers=observers)
                payload = {f.name: getattr(base, f.name)
                           for f in base.__dataclass_fields__.values()}
                return TaggedResult(**payload, tag="hello")

        try:
            res = fit(_dense(), 2, variant="tagged-test", max_iters=2)
            res.variant = "tagged-test"
            loaded = _roundtrip(res, tmp_path, "tagged.npz")
            assert isinstance(loaded, TaggedResult)
            assert loaded.tag == "hello"
        finally:
            _REGISTRY.pop("tagged-test", None)

    def test_unregistered_variant_loads_as_base_class(self, tmp_path):
        res = fit(_dense(), 2, max_iters=2)
        res.variant = "long-gone-variant"
        loaded = _roundtrip(res, tmp_path)
        assert type(loaded) is NMFResult
        assert loaded.variant == "long-gone-variant"

    @pytest.mark.parametrize("through", ["NMFResult.load", "ModelStore.load"])
    def test_artifact_with_unknown_config_fields_still_loads(self, tmp_path, through):
        """An artifact saved by a version with other NMFConfig fields — older
        ones carry the since-removed ``panel_comm``, ``algorithm`` or
        ``storage`` — loads, the unknown keys dropped and
        defaults filling the rest.  ``config["algorithm"]`` is read exactly
        once: as the variant of an artifact too old to have a top-level one."""
        from repro.serve import ModelStore, project

        res = fit(_dense(), 2, variant="naive", n_ranks=2, max_iters=2, seed=1)
        path = res.save(tmp_path / "old.npz")
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
        assert "algorithm" not in meta["config"]
        meta["config"].update(panel_comm=True, some_future_option=3, algorithm="naive",
                              storage="memmap")
        for top_level_variant in (True, False):
            if not top_level_variant:
                del meta["variant"]
            np.savez(path, W=res.W, H=res.H, meta=np.asarray(json.dumps(meta)))
            if through == "NMFResult.load":
                loaded = NMFResult.load(path)
            else:
                loaded = ModelStore().load(path).result
            assert loaded.config == res.config
            assert loaded.variant == "naive"
            assert np.array_equal(loaded.W, res.W)

        # A kernel that is no longer registered is provenance, kept as saved:
        # the artifact loads, deploys and projects, and only building a solver
        # from its config names the kernels there are.
        meta["config"]["kernel"] = "numba"
        np.savez(path, W=res.W, H=res.H, meta=np.asarray(json.dumps(meta)))
        store = ModelStore()
        entry = store.load(path)
        loaded = NMFResult.load(path) if through == "NMFResult.load" else entry.result
        assert loaded.config.kernel == "numba"
        assert loaded.config == dataclasses.replace(res.config, kernel="numba")
        X = np.abs(np.random.default_rng(3).standard_normal((res.W.shape[0], 4)))
        H = project(entry.W, X, solver=entry.solver_for(None), gram=entry.gram)
        assert H.tobytes() == project(res.W, X, kernel="scalar").tobytes()
        with pytest.raises(SolverError, match=r"\['batched', 'scalar'\]"):
            loaded.config.make_solver()

    def test_artifact_with_a_hidden_comm_breakdown_still_loads(self, tmp_path):
        """Artifacts saved while collectives could complete in the background
        book a ``HiddenComm`` category in the fit's breakdown and in its
        plan's; this version has no such category, so load drops it and the
        totals are the critical-path seconds the artifact recorded."""
        res = fit(_dense(), 2, variant="auto", n_ranks=2, backend="lockstep", max_iters=2,
                  seed=1)
        assert res.plan is not None
        path = res.save(tmp_path / "old.npz")
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
        meta["breakdown"]["HiddenComm"] = 0.5
        meta["plan"]["breakdown"]["HiddenComm"] = 0.25
        np.savez(path, W=res.W, H=res.H, meta=np.asarray(json.dumps(meta)))
        loaded = NMFResult.load(path)
        assert "HiddenComm" not in loaded.breakdown.seconds
        assert loaded.breakdown.total == pytest.approx(res.breakdown.total)
        assert loaded.plan.breakdown.total == pytest.approx(res.plan.breakdown.total)

    def test_save_appends_npz_suffix(self, tmp_path):
        res = fit(_dense(), 2, max_iters=2)
        written = res.save(tmp_path / "bare")
        assert written.suffix == ".npz"
        assert written.exists()
        assert np.array_equal(NMFResult.load(written).W, res.W)

    def test_to_dict_metadata_is_json_serialisable(self):
        res = fit(_dense(), 2, variant="hpc2d", n_ranks=2, max_iters=2, seed=1)
        payload = res.to_dict()
        meta = {k: v for k, v in payload.items() if k not in ("W", "H")}
        text = json.dumps(meta)
        assert json.loads(text)["variant"] == "hpc2d"


class TestProvenance:
    @pytest.mark.parametrize("variant", sorted(available_variants()))
    def test_variant_and_solver_recorded(self, variant):
        parallel = get_variant(variant).parallelizable
        res = fit(_dense(), 2, variant=variant,
                  n_ranks=2 if parallel else None, max_iters=2, seed=1)
        assert res.variant == variant
        assert res.solver == "bpp"
        if parallel:
            assert res.backend == "thread"
        else:
            assert res.backend is None
        # The variant is recorded once, next to the config — not inside it.
        assert "algorithm" not in res.to_dict()["config"]

    @pytest.mark.parametrize("variant", ["naive", "hpc1d", "hpc2d"])
    @pytest.mark.parametrize("backend", ["thread", "lockstep"])
    def test_backend_recorded_for_both_backends(self, variant, backend, tmp_path):
        res = fit(_dense(), 2, variant=variant, n_ranks=2, backend=backend,
                  max_iters=2, seed=1)
        assert res.backend == backend
        assert res.variant == variant
        loaded = _roundtrip(res, tmp_path, f"{variant}-{backend}.npz")
        assert loaded.backend == backend
        assert loaded.variant == variant
        assert loaded.solver == "bpp"

    def test_alternative_solver_recorded(self):
        res = fit(_dense(), 2, solver="hals", max_iters=2, seed=1)
        assert res.solver == "hals"

    def test_summary_mentions_provenance(self):
        res = fit(_dense(), 2, variant="hpc2d", n_ranks=4, backend="lockstep",
                  max_iters=2, seed=1)
        text = res.summary()
        assert "variant=hpc2d" in text
        assert "backend lockstep" in text

    def test_hand_built_result_backfills_from_config(self):
        from repro.core.config import NMFConfig

        res = NMFResult(
            W=np.ones((4, 2)), H=np.ones((2, 3)),
            config=NMFConfig(k=2, solver="mu"), iterations=1,
        )
        assert res.variant == ""  # nobody said; the config does not know
        assert res.solver == "mu"
        assert res.backend is None  # n_ranks == 1


class TestModelLoadError:
    """load() surfaces diagnosable errors: path + missing key, never raw OSError."""

    def _saved(self, tmp_path):
        return fit(_dense(), 2, max_iters=2, seed=1).save(tmp_path / "m.npz")

    def test_missing_file_names_the_path(self, tmp_path):
        from repro.util.errors import ModelLoadError

        with pytest.raises(ModelLoadError, match="ghost.npz") as exc_info:
            NMFResult.load(tmp_path / "ghost.npz")
        assert str(exc_info.value.path) == str(tmp_path / "ghost.npz")

    def test_corrupt_archive_is_model_load_error(self, tmp_path):
        from repro.util.errors import ModelLoadError

        path = tmp_path / "bad.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(ModelLoadError, match="not a readable"):
            NMFResult.load(path)

    def test_missing_array_entry_names_the_key(self, tmp_path):
        from repro.util.errors import ModelLoadError

        path = self._saved(tmp_path)
        with np.load(path, allow_pickle=False) as data:
            kept = {k: data[k] for k in data.files if k != "H"}
        np.savez(path, **kept)
        with pytest.raises(ModelLoadError, match="'H'") as exc_info:
            NMFResult.load(path)
        assert exc_info.value.missing_key == "H"

    def test_corrupt_meta_json_names_the_key(self, tmp_path):
        from repro.util.errors import ModelLoadError

        path = self._saved(tmp_path)
        with np.load(path, allow_pickle=False) as data:
            W, H = np.array(data["W"]), np.array(data["H"])
        np.savez(path, W=W, H=H, meta=np.asarray("{not json"))
        with pytest.raises(ModelLoadError, match="not valid JSON") as exc_info:
            NMFResult.load(path)
        assert exc_info.value.missing_key == "meta"

    def test_missing_meta_field_names_the_key(self, tmp_path):
        from repro.util.errors import ModelLoadError

        path = self._saved(tmp_path)
        with np.load(path, allow_pickle=False) as data:
            W, H = np.array(data["W"]), np.array(data["H"])
            meta = json.loads(str(data["meta"]))
        del meta["iterations"]
        np.savez(path, W=W, H=H, meta=np.asarray(json.dumps(meta)))
        with pytest.raises(ModelLoadError, match="'iterations'") as exc_info:
            NMFResult.load(path)
        assert exc_info.value.missing_key == "iterations"

    def test_error_is_reproerror_subclass(self):
        from repro.util.errors import ModelLoadError, ReproError

        assert issubclass(ModelLoadError, ReproError)
