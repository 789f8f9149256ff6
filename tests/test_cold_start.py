"""A fresh interpreter imports only what it runs.

Dense fits with every registered solver, the CLI and the projection server
never touch ``scipy.sparse`` or ``scipy.linalg`` (sparse input loads
``scipy.sparse`` on first use; no module imports ``scipy.linalg``), the CLI loads the HTTP server only for ``repro serve``, and the server
loads none of the fit machinery: ``repro.core``, ``repro.comm`` and
``repro.dist`` re-export their names lazily.  Each ``sys.modules`` test runs
its program in a new interpreter and reads the modules at the end.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.nls import available_solvers

_SRC = str(Path(repro.__file__).resolve().parents[1])
_SCIPY = ("scipy.sparse", "scipy.linalg")
# What fits, plans and the SPMD runtime need and the server does not.
_FIT_STACK = ("multiprocessing", "repro.comm.backends", "repro.core.api",
              "repro.data", "repro.perf", "repro.plan")
_FACADES = ("repro", "repro.core", "repro.comm", "repro.dist")


def _run(program: str):
    """The last line ``program`` prints in a fresh interpreter, as a literal."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


def _modules_after(program: str) -> set:
    """Every module a fresh interpreter holds after ``program``."""
    return set(_run(f"{program}\nimport sys\nprint(sorted(sys.modules))"))


def _loaded_after(program: str, *modules: str) -> set:
    """Which of ``modules`` a fresh interpreter has imported after ``program``."""
    return _modules_after(program) & set(modules)


def _saved_model(tmp_path) -> Path:
    from repro.core.api import fit
    from repro.data.lowrank import planted_lowrank

    model = fit(planted_lowrank(32, 24, 2, seed=0, noise_std=0.02), 2, max_iters=2, seed=1)
    return model.save(tmp_path / "model.npz")


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


@pytest.mark.parametrize("solver", available_solvers())
def test_a_dense_fit_with_each_solver_loads_no_scipy(solver):
    program = (
        "import numpy as np\n"
        "from repro import fit\n"
        "A = np.abs(np.random.default_rng(0).standard_normal((48, 36)))\n"
        f"fit(A, 4, solver={solver!r}, max_iters=3, seed=1)\n"
        f"fit(A, 4, variant='hpc2d', n_ranks=2, solver={solver!r}, max_iters=3, seed=1)\n"
    )
    assert _loaded_after(program, *_SCIPY, "repro.nls.base") == {"repro.nls.base"}


@pytest.mark.parametrize("solver", available_solvers())
def test_a_sparse_fit_with_each_solver_loads_scipy_sparse_alone(solver):
    program = (
        "from repro import fit\n"
        "from repro.data import sparse_synthetic\n"
        "A = sparse_synthetic(48, 36, density=0.2, seed=0)\n"
        f"fit(A, 4, solver={solver!r}, max_iters=3, seed=1)\n"
    )
    assert _loaded_after(program, *_SCIPY) == {"scipy.sparse"}


def test_importing_the_cli_loads_neither_scipy_nor_the_server():
    assert _loaded_after("import repro.cli", *_SCIPY, "repro.serve.server", "asyncio", "orjson") == set()


def _serve_self_test(path: Path) -> str:
    return (
        "from repro.cli import main\n"
        f"assert main(['serve', {str(path)!r}, '--port', '0', '--self-test', '2']) == 0\n"
    )


def test_serve_self_test_loads_no_scipy(tmp_path):
    program = _serve_self_test(_saved_model(tmp_path))
    assert _loaded_after(program, *_SCIPY, "repro.serve.server") == {"repro.serve.server"}


@pytest.mark.parametrize("entry", ["serve --self-test", "from repro.serve import ModelStore"])
def test_the_serving_path_loads_no_fit_machinery(tmp_path, entry):
    """``repro.core.result`` and ``NMFConfig`` cross the ``repro.core``,
    ``repro.comm`` and ``repro.dist`` packages without loading their
    variants, backends (and with them ``multiprocessing``) or layouts."""
    if entry == "serve --self-test":
        program = _serve_self_test(_saved_model(tmp_path))
    else:
        program = entry
    loaded = _modules_after(program)
    assert loaded & set(_FIT_STACK) == set()
    assert {m for m in loaded if m.startswith("repro.dist.")} == set()


def test_loading_a_symmetric_model_loads_no_fit_program(tmp_path):
    """A saved SymNMF result comes back as a ``SymNMFResult`` by the class
    name its archive records: no variant table, loop or backend is imported."""
    from repro.core.api import fit
    from repro.data.lowrank import planted_lowrank

    A = planted_lowrank(32, 24, 2, seed=0, noise_std=0.02)
    path = fit(A, 2, variant="symmetric", max_iters=2, seed=1).save(tmp_path / "sym.npz")
    program = (
        "from repro.serve import ModelStore\n"
        f"entry = ModelStore().load({str(path)!r})\n"
        "assert type(entry.result).__name__ == 'SymNMFResult', type(entry.result)\n"
    )
    fit_programs = ("repro.core.hpc_nmf", "repro.core.naive", "repro.comm.backends",
                    "repro.core.variants")
    assert _loaded_after(program, "repro.core.symmetric", *fit_programs) == {
        "repro.core.symmetric"
    }


@pytest.mark.parametrize("package", _FACADES)
def test_facades_resolve_every_export_to_its_defining_module(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        if name.startswith("__"):
            continue
        value = getattr(module, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert value.__module__.startswith(f"{package}."), name


@pytest.mark.parametrize("package", _FACADES)
def test_facades_list_their_exports_and_name_themselves_when_asked_for_more(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'nope'"):
        module.nope


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


def test_ranks_import_nothing_on_a_repeat_fit():
    """After one warm fit, rank 0 of a second ``hpc2d`` fit holds no module
    its parent did not: ``from repro import fit`` preloads nothing, so the
    first fit's parent must import all a rank will use before forking."""
    program = (
        "import sys\n"
        "import numpy as np\n"
        "from repro import fit\n"
        "from repro.core.observers import IterationObserver\n"
        "class NewModules(IterationObserver):\n"
        "    def __init__(self):\n"
        "        self.held, self.new = set(sys.modules), set()\n"
        "    def on_iteration(self, event):\n"
        "        self.new |= set(sys.modules) - self.held\n"
        "A = np.abs(np.random.default_rng(0).standard_normal((48, 36)))\n"
        "found = {}\n"
        "for backend in ('process', 'socket'):\n"
        "    for solver in ('bpp', 'hals'):\n"
        "        options = dict(variant='hpc2d', n_ranks=2, backend=backend, solver=solver,\n"
        "                       max_iters=3, seed=1)\n"
        "        fit(A, 4, observers=[NewModules()], **options)\n"
        "        probe = NewModules()\n"
        "        fit(A, 4, observers=[probe], **options)\n"
        "        found[backend, solver] = sorted(probe.new)\n"
        "print(found)\n"
    )
    found = _run(program)
    assert found == {(b, s): [] for b in ("process", "socket") for s in ("bpp", "hals")}
