"""The repro.bench baseline writer: payload shape, artifact IO, floor checks."""

import json
import warnings

import pytest

from repro.bench import (
    SCALES,
    check_baseline,
    load_baseline,
    render_baseline,
    run_baseline,
    write_baseline,
)


@pytest.fixture(autouse=True)
def _silence_oversubscription():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


@pytest.fixture(scope="module")
def measured():
    # One real (tiny, dense-only, single-repeat) measurement shared by the
    # module: p=2 keeps the fork cost negligible even on 1-CPU hosts.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        # serve=False: the serving panel has its own module (test_serve_panel).
        return run_baseline(scale="tiny", p=2, panels=("dense",), repeats=1,
                            serve=False)


class TestRunBaseline:
    def test_payload_shape(self, measured):
        assert measured["schema"] == 1
        assert measured["p"] == 2
        assert measured["cpu_count"] >= 1
        (panel,) = measured["panels"]
        assert panel["panel"] == "dense"
        variants = [(r["variant"], r["backend"]) for r in panel["rows"]]
        assert variants == [
            ("sequential", None), ("hpc2d", "thread"), ("hpc2d", "process"),
        ]
        for row in panel["rows"]:
            assert row["wall_s"] > 0
            assert row["iters_per_s"] > 0
        assert measured["panels"][0]["rows"][0]["speedup_vs_sequential"] == 1.0

    def test_headline_speedups_present(self, measured):
        speedups = measured["speedups"]
        assert "dense:process_vs_thread" in speedups
        assert "dense:thread_vs_sequential" in speedups
        assert "dense:process_vs_sequential" in speedups
        assert all(v > 0 for v in speedups.values())

    def test_kernel_panel_attached(self, measured):
        kernels = measured["kernels"]
        assert kernels["panel"] == "dense"
        names = [row["kernel"] for row in kernels["rows"]]
        assert "scalar" in names and "batched" in names
        for row in kernels["rows"]:
            assert row["wall_s"] > 0
            assert row["columns_per_s"] > 0
        scalar_row = next(r for r in kernels["rows"] if r["kernel"] == "scalar")
        assert scalar_row["speedup_vs_scalar"] == 1.0
        assert "bpp_batched_vs_scalar" in measured["speedups"]

    def test_overlap_panel_measures_both_completion_modes(self, measured):
        overlap = measured["overlap"]
        assert overlap["panel"] == "dense"
        for row in overlap["rows"]:
            for key in ("wall_blocking_s", "wall_default_s"):
                assert row[key] > 0
            assert row["pipelined_vs_blocking"] == pytest.approx(
                row["wall_blocking_s"] / row["wall_default_s"]
            )
            # Exposed-vs-hidden split per mode, for the BENCH artifact.
            assert set(row["comm_split"]) == {"blocking", "default"}
            for split in row["comm_split"].values():
                assert split["exposed_comm_s"] >= 0.0
                assert split["hidden_comm_s"] >= 0.0
            # The blocking schedule hides nothing by construction.
            assert row["comm_split"]["blocking"]["hidden_comm_s"] == 0.0
        speedups = measured["speedups"]
        assert "dense:process_pipelined_vs_blocking" in speedups
        assert "dense:thread_pipelined_vs_blocking" in speedups

    def test_kernel_panel_can_be_skipped(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            payload = run_baseline(scale="tiny", p=2, panels=(), kernels=False,
                                   serve=False)
        assert "kernels" not in payload
        assert "serve" not in payload
        assert not any(m.startswith("bpp_") for m in payload["speedups"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            run_baseline(scale="galactic")

    def test_scales_cover_dense_and_sparse(self):
        for scale, panels in SCALES.items():
            assert set(panels) == {"dense", "sparse"}, scale


class TestArtifactIO:
    def test_write_and_load_round_trip(self, measured, tmp_path):
        path = write_baseline(measured, tmp_path)
        assert path.name == "BENCH_tiny_p2.json"
        assert load_baseline(path) == measured

    def test_custom_label(self, measured, tmp_path):
        assert write_baseline(measured, tmp_path, label="x").name == "BENCH_x.json"

    def test_render_mentions_every_row(self, measured):
        table = render_baseline(measured)
        assert "sequential" in table
        assert "process" in table
        assert "dense:process_vs_thread" in table

    def test_render_mentions_kernel_panel(self, measured):
        table = render_baseline(measured)
        assert "BPP kernels" in table
        assert "batched" in table
        assert "bpp_batched_vs_scalar" in table

    def test_render_mentions_overlap_panel(self, measured):
        table = render_baseline(measured)
        assert "blocking / default" in table
        assert "blk/dflt" in table
        assert "dense:process_pipelined_vs_blocking" in table


class TestCheckBaseline:
    def test_failing_floor_is_reported(self):
        measured = {"cpu_count": 8, "speedups": {"dense:process_vs_thread": 1.1}}
        baseline = {"floors": [
            {"metric": "dense:process_vs_thread", "min": 1.5, "requires_cpus": 4},
        ]}
        failures, skipped = check_baseline(measured, baseline)
        assert skipped == []
        assert len(failures) == 1 and "regressed" in failures[0]

    def test_passing_floor(self):
        measured = {"cpu_count": 8, "speedups": {"dense:process_vs_thread": 2.0}}
        baseline = {"floors": [
            {"metric": "dense:process_vs_thread", "min": 1.5, "requires_cpus": 4},
        ]}
        assert check_baseline(measured, baseline) == ([], [])

    def test_floor_skipped_loudly_when_host_lacks_cpus(self):
        measured = {"cpu_count": 1, "speedups": {"dense:process_vs_thread": 0.7}}
        baseline = {"floors": [
            {"metric": "dense:process_vs_thread", "min": 1.5, "requires_cpus": 4},
        ]}
        failures, skipped = check_baseline(measured, baseline)
        assert failures == []
        assert len(skipped) == 1 and "4 CPUs" in skipped[0]

    def test_missing_metric_fails(self):
        measured = {"cpu_count": 8, "speedups": {}}
        baseline = {"floors": [{"metric": "nope", "min": 1.0}]}
        failures, _ = check_baseline(measured, baseline)
        assert failures == ["nope missing from the measured payload"]

    def test_committed_baseline_parses_and_gates_the_dense_panel(self):
        from pathlib import Path

        committed = json.loads(
            (Path(__file__).resolve().parents[2]
             / "benchmarks" / "baselines" / "BENCH_baseline.json").read_text()
        )
        metrics = {f["metric"] for f in committed["floors"]}
        assert "dense:process_vs_thread" in metrics
        floor = next(f for f in committed["floors"]
                     if f["metric"] == "dense:process_vs_thread")
        assert floor["min"] >= 1.5
        assert floor["requires_cpus"] >= 4

    def test_committed_baseline_gates_the_batched_kernel(self):
        from pathlib import Path

        committed = json.loads(
            (Path(__file__).resolve().parents[2]
             / "benchmarks" / "baselines" / "BENCH_baseline.json").read_text()
        )
        floor = next(f for f in committed["floors"]
                     if f["metric"] == "bpp_batched_vs_scalar")
        assert floor["min"] >= 2.0
        assert floor["requires_cpus"] >= 4

    def test_committed_baseline_gates_the_default_schedule(self):
        from pathlib import Path

        committed = json.loads(
            (Path(__file__).resolve().parents[2]
             / "benchmarks" / "baselines" / "BENCH_baseline.json").read_text()
        )
        floor = next(f for f in committed["floors"]
                     if f["metric"] == "dense:process_pipelined_vs_blocking")
        assert floor["min"] >= 1.0
        assert floor["requires_cpus"] >= 4
        assert len(committed["floors"]) == 5
