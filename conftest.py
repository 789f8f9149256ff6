"""Pytest bootstrap: make the ``src/`` layout importable without installation.

With this, a plain ``python -m pytest -q`` works from the repo root; the
``PYTHONPATH=src`` prefix (and ``pip install -e .``) remain equivalent
alternatives — see README.md.
"""

import sys
import threading
from pathlib import Path

import pytest

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
