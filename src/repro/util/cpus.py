"""How many CPUs this process may run on, and how many BLAS threads it runs."""

from __future__ import annotations

import os
from typing import Callable, List, Tuple

#: (getter, setter) symbol pairs of the OpenBLAS builds this looks for: the
#: one numpy and scipy wheels bundle (64-bit integers, prefixed) and a plain
#: system OpenBLAS.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

BlasPool = Tuple[Callable[[], int], Callable[[int], None]]


def available_cpus() -> int:
    """CPUs actually available to this process (affinity/cgroup aware).

    ``os.cpu_count()`` reports the host's logical CPUs, which overstates what
    a container pinned to a subset of cores can use — that would both hide
    real oversubscription and make CI speedup floors fire on hardware that
    cannot meet them.  The forked fit backends warn past it, and ``repro
    serve`` runs one worker process per CPU it counts.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def openblas_pools() -> List[BlasPool]:
    """``(get, set)`` thread-count functions of every OpenBLAS loaded here.

    Libraries are found in ``/proc/self/maps`` and opened with
    ``RTLD_NOLOAD``, so nothing new is loaded; one that exports no setter
    (or a platform without ``/proc``) contributes nothing.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({
                line.split(maxsplit=5)[-1].strip() for line in maps
                if "openblas" in line.lower() and "/" in line
            })
    except OSError:  # pragma: no cover - non-Linux platforms
        return []
    import ctypes

    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # pragma: no cover - unmapped since the read
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            try:
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            except AttributeError:
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            pools.append((get, set_))
            break
    return pools


def cap_blas_threads(pools: List[BlasPool], limit: int) -> None:
    """Lower each pool's thread count to ``limit`` where it is higher.

    A forked rank inherits its parent's pool, one thread per CPU by default,
    so p ranks would run p × CPUs BLAS threads.  A pool at or below ``limit``
    (a pinned run: ``OPENBLAS_NUM_THREADS=1``) is not touched.
    """
    for get, set_ in pools:
        if get() > limit:
            set_(limit)
