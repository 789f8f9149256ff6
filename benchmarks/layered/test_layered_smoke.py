"""Tier-1 hook of the layered benchmark: the harness runs and says what it promises.

``--smoke`` divides every shape by 8 and runs one child with two timed
operations, so this stays under twenty seconds; it checks names, units and
correctness, never speed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
BENCH = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(tmp_path, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(tmp_path), *extra],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    failures = [line for line in proc.stdout.splitlines() if "FAILED" in line]
    assert proc.returncode == 0, "\n".join(failures) + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_metrics(result, declared):
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] == got["value"]


def test_benchmark_json_is_within_the_contract():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    assert BENCH["paths"] == ["benchmarks/layered"]
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])


def test_every_workload_reports_every_end_to_end_metric(tmp_path):
    result = _run(tmp_path)
    assert set(result["workloads"]) == {w["name"] for w in BENCH["workloads"]}
    for per_workload in result["workloads"].values():
        _check_metrics(per_workload, BENCH["end_to_end"])
        for metric in per_workload["metrics"].values():
            assert metric["value"] > 0


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    result = _run(tmp_path, "--workload", "dense_bpp", "--trace", "1")
    _check_metrics(result, BENCH["per_layer"])
    trace = json.loads((tmp_path / "layered_dense_bpp_seed7_trace1.trace.json").read_text())
    layers = {event["cat"] for event in trace["traceEvents"]}
    assert {"core", "serve", "comm.backends", "comm.collectives", "nls", "dist", "plan"} <= layers
    assert not list(tmp_path.glob("work-*")), "temp work directories left behind"


def test_refuses_to_run_outside_a_checkout(tmp_path):
    bare = tmp_path / "benchmarks" / "layered"
    bare.parent.mkdir()
    import shutil

    shutil.copytree(HERE, bare, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/layered/run.py", "--workload", "dense_bpp"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and not proc.stdout.strip()


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
