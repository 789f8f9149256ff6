"""Tests for the command-line interface."""

from pathlib import Path

import numpy as np
import pytest

from repro.cli import main


def test_datasets_command_lists_registry(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "dsyn-small" in out and "webbase-paper" in out


def test_factorize_registered_dataset(capsys, tmp_path):
    save = tmp_path / "factors.npz"
    code = main([
        "factorize", "video-small", "-k", "3", "--ranks", "2",
        "--variant", "hpc2d", "--iters", "3", "--save", str(save),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "relative error" in out
    with np.load(save) as data:
        assert data["W"].shape[1] == 3
        assert data["H"].shape[0] == 3


def test_factorize_npy_file(capsys, tmp_path):
    # The input is mapped, not read: the fit's blocks of a mapped A are
    # file-backed (tests/dist/test_storage.py), so A is never resident whole.
    from repro.cli import _load_input
    from repro.core.api import fit

    A = np.abs(np.random.default_rng(0).standard_normal((30, 20)))
    path, save = tmp_path / "matrix.npy", tmp_path / "factors.npz"
    np.save(path, A)
    loaded = _load_input(str(path))
    assert isinstance(loaded, np.memmap) and not loaded.flags.writeable
    assert loaded.tobytes() == A.tobytes()
    code = main(["factorize", str(path), "-k", "2", "--variant", "sequential",
                 "--iters", "2", "--save", str(save)])
    assert code == 0
    assert "k=2" in capsys.readouterr().out
    expected = fit(A, 2, variant="sequential", max_iters=2)
    with np.load(save) as data:
        assert data["W"].tobytes() == expected.W.tobytes()
        assert data["H"].tobytes() == expected.H.tobytes()


def test_factorize_without_variant_defers_to_the_library_rule(capsys):
    # fit's own default: sequential on one rank, hpc2d above — no one-rank
    # SPMD world for a plain `repro factorize X -k K`.
    assert main(["factorize", "video-small", "-k", "2", "--iters", "2"]) == 0
    assert "variant=sequential" in capsys.readouterr().out
    assert main(["factorize", "video-small", "-k", "2", "--iters", "2", "--ranks", "2"]) == 0
    out = capsys.readouterr().out
    assert "variant=hpc2d" in out and "ranks: 2" in out


def test_removed_spellings_are_rejected():
    # One name for an algorithm, one stopwatch (benchmarks/layered).
    for argv in (
        ["factorize", "video-small", "-k", "2", "--algorithm", "hpc2d"],
        ["experiment", "comparison"],
        ["bench"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2  # argparse usage error


def test_factorize_has_no_overlap_flag(capsys):
    # Every collective is a blocking call, so there is nothing to switch off.
    with pytest.raises(SystemExit) as excinfo:
        main(["factorize", "video-small", "-k", "2", "--no-overlap"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --no-overlap" in capsys.readouterr().err


def test_factorize_missing_input_errors():
    with pytest.raises(SystemExit):
        main(["factorize", "definitely-not-a-dataset", "-k", "2"])


def test_factorize_paper_dataset_alias(capsys):
    assert main(["factorize", "Video", "-k", "2", "--variant", "sequential",
                 "--iters", "2"]) == 0
    assert "k=2" in capsys.readouterr().out


def test_factorize_nonpositive_ranks_errors():
    with pytest.raises(SystemExit, match="ranks"):
        main(["factorize", "ssyn-small", "-k", "2", "--ranks", "0"])


def test_factorize_sequential_variant_rejects_ranks():
    with pytest.raises(SystemExit, match="sequential-only"):
        main(["factorize", "ssyn-small", "-k", "2", "--ranks", "4",
              "--variant", "sequential"])


def test_variants_command_lists_registry(capsys):
    from repro.core.variants import available_variants

    assert main(["variants"]) == 0
    out = capsys.readouterr().out
    for name in available_variants():
        assert name in out
    assert "parallelizable" in out


def test_version_flag_matches_pyproject(capsys):
    tomllib = pytest.importorskip("tomllib")  # stdlib from 3.11 on

    import repro

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert repro.__version__ in out

    pyproject = Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text())["project"]["version"]
    assert declared == repro.__version__, (
        "pyproject.toml and repro.__version__ drifted apart"
    )


def test_plan_dataset_alias(capsys):
    assert main(["plan", "SSYN"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Execution plan candidates")
    assert "ssyn-paper" in out
    assert "hpc2d" in out and "hpc1d" in out and "naive" in out
    assert "* chosen:" in out


def test_plan_registered_dataset_name(capsys):
    assert main(["plan", "video-small", "-k", "4", "--ranks", "4"]) == 0
    assert "video-small" in capsys.readouterr().out


def test_plan_adhoc_shape_tall_skinny(capsys):
    assert main([
        "plan", "--shape", "20000", "200", "--density", "0.01",
        "--ranks", "16", "-k", "10",
    ]) == 0
    out = capsys.readouterr().out
    assert "20000x200" in out and "sparse" in out
    # m/p = 1250 > n = 200: the chosen grid must be the paper's 1D regime.
    assert "grid=16x1" in out


def test_plan_prices_against_edison_or_this_host_only(capsys):
    # The laptop preset's constants were invented, not the paper's (edison)
    # or measured (local), so it is gone.
    with pytest.raises(SystemExit) as excinfo:
        main(["plan", "SSYN", "--machine", "laptop"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert ("argument --machine: invalid choice: 'laptop' "
            "(choose from 'edison', 'local')") in err


def test_plan_requires_dataset_or_shape():
    with pytest.raises(SystemExit, match="--shape"):
        main(["plan"])


def test_plan_rejects_dataset_and_shape_together():
    with pytest.raises(SystemExit, match="not both"):
        main(["plan", "SSYN", "--shape", "10", "10"])


def test_plan_rejects_density_without_shape():
    with pytest.raises(SystemExit, match="--density"):
        main(["plan", "SSYN", "--density", "0.5"])


def test_plan_unknown_dataset_errors():
    with pytest.raises(SystemExit, match="not a registered dataset"):
        main(["plan", "no-such-dataset"])


def test_plan_nonpositive_ranks_errors():
    with pytest.raises(SystemExit, match="ranks"):
        main(["plan", "SSYN", "--ranks", "0"])


def _serve_model(tmp_path):
    from repro.core.api import fit
    from repro.data.lowrank import planted_lowrank

    res = fit(planted_lowrank(32, 24, 2, seed=0, noise_std=0.02), 2,
              max_iters=2, seed=1)
    return res.save(tmp_path / "model.npz")


def test_serve_self_test_round_trip(capsys, tmp_path):
    path = _serve_model(tmp_path)
    code = main(["serve", str(path), "--port", "0", "--self-test", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "serving" in out
    assert "self-test passed" in out
    assert "version 1 -> 2 (ingest) -> 3 (reload)" in out
    assert '"responses_total": 5' in out  # 4, then one from the reloaded version


def test_serve_on_localhost(capsys, tmp_path):
    path = _serve_model(tmp_path)
    code = main(["serve", str(path), "--host", "localhost", "--port", "0",
                 "--self-test", "2"])
    assert code == 0
    assert "serving ['model'] on http://localhost:" in capsys.readouterr().out


def test_serve_named_model_spec(capsys, tmp_path):
    path = _serve_model(tmp_path)
    assert main(["serve", f"prod={path}", "--port", "0", "--self-test"]) == 0
    assert "prod" in capsys.readouterr().out


def test_serve_models_dir(capsys, tmp_path):
    path = _serve_model(tmp_path)
    code = main(["serve", "--models-dir", str(path.parent), "--port", "0",
                 "--self-test", "2"])
    assert code == 0
    assert "model" in capsys.readouterr().out


def test_serve_missing_model_errors(tmp_path):
    with pytest.raises(SystemExit, match="ghost"):
        main(["serve", str(tmp_path / "ghost.npz"), "--port", "0",
              "--self-test"])


def test_serve_without_models_errors():
    with pytest.raises(SystemExit, match="nothing to serve"):
        main(["serve", "--port", "0", "--self-test"])


def _help(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--help"])
    assert excinfo.value.code == 0
    return " ".join(capsys.readouterr().out.split())


def test_serve_help_names_the_batch_default(capsys):
    from repro.serve.server import MAX_BATCH_COLUMNS

    out = _help(capsys, "serve")
    assert f"(default {MAX_BATCH_COLUMNS})" in out
    assert "(default 256)" in out


def test_top_level_help_lists_the_five_subcommands(capsys):
    out = _help(capsys)
    for line in (
        "factorize run NMF on a dataset or matrix file",
        "plan print the cost-model candidate table (variant x grid) for a problem",
        "variants list registered NMF variants",
        "serve serve saved NMF models over HTTP",
        "datasets list registered datasets",
    ):
        assert line in out


def _registries() -> dict:
    from repro.comm.backends import available_backends
    from repro.core.variants import available_variants
    from repro.nls import available_solvers
    from repro.nls.kernels import available_kernels

    return {
        "--variant": available_variants(),
        "--backend": available_backends(),
        "--solver": available_solvers(),
        "--kernel": available_kernels() + ["auto"],
    }


@pytest.mark.parametrize("command, options", [
    ("factorize", ("--variant", "--backend", "--solver")),
    ("plan", ("--backend",)),
    ("serve", ("--kernel",)),
])
def test_subcommand_help_lists_every_registered_choice(capsys, command, options):
    out = _help(capsys, command)
    registries = _registries()
    for option in options:
        assert f"{option} {{{','.join(registries[option])}}}" in out


@pytest.mark.parametrize("option", ["--backend", "--variant", "--solver"])
def test_unknown_registry_name_names_the_valid_ones(capsys, option):
    with pytest.raises(SystemExit) as excinfo:
        main(["factorize", "video-small", "-k", "2", option, "warp-drive"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: invalid choice: 'warp-drive'" in err
    for name in _registries()[option]:
        assert repr(name) in err


@pytest.mark.parametrize("solver", ["admm", "pgrad"])
def test_factorize_offers_only_the_solvers_the_census_kept(capsys, solver):
    with pytest.raises(SystemExit) as excinfo:
        main(["factorize", "video-small", "-k", "2", "--solver", solver])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert (f"argument --solver: invalid choice: '{solver}' "
            "(choose from 'bpp', 'hals', 'mu')") in err


@pytest.mark.parametrize("option, value", [
    ("--max-batch", "0"),
    ("--queue-limit", "0"),
    ("--refresh-every", "0"),
    ("--deadline", "-1"),
    ("--deadline", "0"),
    ("--port", "-5"),
    ("--port", "65536"),
    ("--port", "http"),
])
def test_serve_rejects_bad_numbers_before_loading_models(capsys, option, value):
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "ghost.npz", option, value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}:" in err
    assert "ghost" not in err


def test_serve_rejects_unknown_kernel():
    with pytest.raises(SystemExit):
        main(["serve", "x.npz", "--kernel", "warp-drive"])


@pytest.mark.parametrize("kernel", ["auto", "batched", "scalar"])
def test_serve_still_takes_every_kernel_name(kernel):
    """Serving keeps its engine choice: ``repro serve --kernel`` parses."""
    from repro.cli import build_parser

    args = build_parser("serve").parse_args(["serve", "m.npz", "--kernel", kernel])
    assert args.kernel == kernel
    assert args.models == ["m.npz"]


@pytest.mark.parametrize("argv", [
    ["factorize", "video-small", "-k", "2"],
    ["plan", "SSYN"],
])
def test_fits_and_plans_take_no_kernel(capsys, argv):
    """BPP's engine is the solver's business: only ``serve`` has ``--kernel``."""
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--kernel", "scalar"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --kernel scalar" in capsys.readouterr().err
