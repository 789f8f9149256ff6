"""Host fingerprint and the BLAS pinning every child runs under."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict

#: One BLAS thread per rank: with the library default, two ranks on two cores
#: oversubscribe and the benchmark measures the scheduler, not the program.
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: numpy asks for transparent huge pages on every large allocation.  In the VM
#: this benchmark was sized on, first touch of huge-page memory costs ~8 s per
#: GiB against ~0.8 s with 4 KiB pages, and the cost varies from run to run:
#: the children opt out so that fresh arrays are not what a run measures.
ALLOC_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0"}


def child_env(repo_root: Path, tmp_dir: Path) -> Dict[str, str]:
    """Environment of every child: pinned BLAS, ``src/`` importable, own TMPDIR."""
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env.update(ALLOC_ENV)
    src = str(repo_root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(tmp_dir)
    return env


def cpus_available() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def llc_bytes() -> int:
    """Size of the last-level cache as the kernel reports it (0 if unknown)."""
    best_level, best_size = -1, 0
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in base.glob("index*"):
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
            size = int(text[:-1]) * {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[text[-1]]
            if level > best_level:
                best_level, best_size = level, size
    except (OSError, ValueError, KeyError):
        pass
    return best_size


def ram_bytes() -> int:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) * 1024
    except (OSError, ValueError):
        pass
    return 0


def _git_sha(repo_root: Path) -> str:
    if not (repo_root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo_root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def host_fingerprint(repo_root: Path) -> dict:
    """What the parent can say without importing numpy."""
    return {
        "nproc": cpus_available(),
        "cpu_model": _cpu_model(),
        "llc_bytes": llc_bytes(),
        "ram_bytes": ram_bytes(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_sha": _git_sha(repo_root),
    }


def thread_count() -> int:
    """Threads of this process (1 when BLAS started no workers)."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 1


def child_fingerprint() -> dict:
    """What a child reports after importing numpy: versions and pinning in force.

    ``blas_threads`` is measured, not read from the environment: a GEMM large
    enough for OpenBLAS to go parallel is run first, then the process's
    threads are counted (the interpreter is single-threaded at this point).
    """
    import numpy as np
    import scipy

    a = np.ones((256, 256))
    a @ a
    try:
        blas = np.__config__.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name', 'blas')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        blas_version = "unknown"
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_env": {key: os.environ.get(key) for key in (*BLAS_ENV, *ALLOC_ENV)},
        "blas_threads": thread_count(),
    }
