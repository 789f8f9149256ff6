"""Pytest bootstrap: make the ``src/`` layout importable without installation.

With this, a plain ``python -m pytest -q`` works from the repo root; the
``PYTHONPATH=src`` prefix (and ``pip install -e .``) remain equivalent
alternatives — see README.md.
"""

import os
import sys
import threading
from pathlib import Path

# One BLAS thread, as the benchmark runs: a multi-threaded gemv splits its
# columns at a boundary that depends on the operand's width, so the same
# product over a column block and over the whole matrix can round
# differently, and the byte-identity tests would depend on the host's cores.
# Set before anything imports numpy; an explicit setting in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

_SRC = str(Path(__file__).resolve().parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


@pytest.fixture
def refuse_helper_threads(monkeypatch):
    """No ``nb-helper*`` thread may *start* while the test runs: ``Thread.start``
    refuses one in this process (``thread`` and ``lockstep`` ranks) and in
    every forked rank, which inherits the patched class."""
    real_start = threading.Thread.start

    def start(thread):
        assert not thread.name.startswith("nb-helper"), f"{thread.name} was started"
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
