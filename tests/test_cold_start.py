"""A fresh interpreter imports only what it runs.

Dense fits, the CLI and the projection server never touch ``scipy.sparse``
or ``scipy.linalg`` (sparse input and the ADMM solver load them on first
use), and the CLI loads the HTTP server only for ``repro serve``.  Each test
runs its program in a new interpreter and reads ``sys.modules`` at the end.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])
_SCIPY = ("scipy.sparse", "scipy.linalg")


def _loaded_after(program: str, *modules: str) -> set:
    """Which of ``modules`` a fresh interpreter has imported after ``program``."""
    probe = f"{program}\nimport sys\nprint(sorted(m for m in {modules!r} if m in sys.modules))"
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(ast.literal_eval(done.stdout.splitlines()[-1]))


def test_dense_fits_load_no_scipy():
    """Nor ``numpy.ma``: forked ranks would import it again on every fit."""
    program = (
        "import numpy as np\n"
        "from repro import fit\n"
        "A = np.abs(np.random.default_rng(0).standard_normal((48, 36)))\n"
        "fit(A, 4, max_iters=3, seed=1)\n"
        "fit(A, 4, variant='hpc2d', n_ranks=2, backend='process', max_iters=3, seed=1)\n"
    )
    assert _loaded_after(program, *_SCIPY, "numpy.ma", "repro.core.api") == {"repro.core.api"}


def test_importing_the_cli_loads_neither_scipy_nor_the_server():
    assert _loaded_after("import repro.cli", *_SCIPY, "repro.serve.server", "asyncio", "orjson") == set()


def test_serve_self_test_loads_no_scipy(tmp_path):
    from repro.core.api import fit
    from repro.data.lowrank import planted_lowrank

    model = fit(planted_lowrank(32, 24, 2, seed=0, noise_std=0.02), 2, max_iters=2, seed=1)
    path = model.save(tmp_path / "model.npz")
    program = (
        "from repro.cli import main\n"
        f"assert main(['serve', {str(path)!r}, '--port', '0', '--self-test', '2']) == 0\n"
    )
    assert _loaded_after(program, *_SCIPY, "repro.serve.server") == {"repro.serve.server"}


def test_forked_ranks_inherit_what_they_import():
    """``process`` and ``socket`` fork fresh ranks for every fit, so a module a
    rank imports itself is imported again on every fit.  Building the TCP mesh
    must not resolve the peer address (``getaddrinfo`` imports
    ``encodings.idna``; rank 0 only accepts, so a connecting rank is the one
    to ask), and the socket runtime's parent imports the point-to-point
    collectives before the ranks fork."""
    program = (
        "import sys\n"
        "from repro.comm.backends import run_spmd\n"
        "def rank(comm):\n"
        "    comm.allreduce_scalar(1.0)\n"
        "    return 'encodings.idna' in sys.modules\n"
        "for backend in ('process', 'socket'):\n"
        "    assert run_spmd(2, rank, backend=backend) == [False, False], backend\n"
    )
    loaded = _loaded_after(program, "encodings.idna", "repro.comm.collectives")
    assert loaded == {"repro.comm.collectives"}
