"""Smoke runs of ``examples/scaling_study.py`` (modeled mode, well under a second).

With no argument it studies all four paper datasets; a name outside them is
a usage error that lists the four.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SCRIPT = _ROOT / "examples" / "scaling_study.py"
DATASETS = ("DSYN", "SSYN", "Video", "Webbase")


def _run(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(_SCRIPT), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_no_arguments_studies_every_dataset():
    done = _run()
    assert done.returncode == 0, done.stderr
    table3 = done.stdout.split("Table 3 analogue")[1].splitlines()
    for dataset in DATASETS:
        assert f"Dataset: {dataset}" in done.stdout
        for variant in ("naive", "hpc1d", "hpc2d"):
            assert any(line.split()[:1] == [f"{variant}:{dataset}"] for line in table3)


@pytest.mark.parametrize("args", [("Foo",), ("SSYN", "ssyn")])
def test_an_unknown_dataset_is_a_usage_error_naming_the_four(args):
    done = _run(*args)
    assert done.returncode == 2
    assert done.stdout == ""
    assert f"choose from {', '.join(DATASETS)}" in done.stderr
