"""Every module under ``src/repro`` imports on its own.

A test suite imports modules in one order, so an import cycle that only
bites when a module is the first of its package to load goes unseen.  Each
module is imported here with no ``repro`` module loaded before it: one fresh
interpreter drops every ``repro.*`` entry from ``sys.modules`` between
imports, so each import re-runs the package ``__init__`` files it crosses.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_PACKAGE = Path(repro.__file__).resolve().parent
_SRC = str(_PACKAGE.parent)


def _modules():
    for path in sorted(_PACKAGE.rglob("*.py")):
        parts = path.relative_to(_PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__main__":  # runs the CLI
            continue
        yield ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


_PROGRAM = """
import importlib, sys, traceback
failed = []
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failed.append(name + ": " + traceback.format_exc().strip().splitlines()[-1])
print("\\n".join(failed))
"""


def test_every_module_imports_first():
    modules = list(_modules())
    assert "repro.comm.communicator" in modules and "repro.serve.supervisor" in modules
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _PROGRAM, *modules], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
