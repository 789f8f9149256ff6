"""How many CPUs this process may run on."""

from __future__ import annotations

import os


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
