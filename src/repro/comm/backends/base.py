"""The :class:`Backend` interface and the backend registry.

An execution backend is the substrate that runs an SPMD program — the same
per-rank function on ``n_ranks`` ranks, wired together by a
:class:`~repro.comm.communicator.Comm` — and collects the per-rank return
values.  The algorithms in :mod:`repro.core` are written against the
communicator only, so backends are interchangeable:

* ``"thread"`` (:class:`~repro.comm.backends.thread.ThreadBackend`) runs one
  Python thread per rank; ranks genuinely overlap wherever the numerical
  kernels release the GIL.
* ``"lockstep"`` (:class:`~repro.comm.backends.lockstep.LockstepBackend`)
  runs the ranks cooperatively, one at a time in rank order, handing off only
  at communication points — deterministic interleaving, deterministic
  deadlock detection, and no concurrent-thread pressure even at hundreds of
  simulated ranks.
* ``"process"`` (:class:`~repro.comm.backends.process.ProcessBackend`) and
  ``"socket"`` (:class:`~repro.comm.backends.socket.SocketBackend`) run one
  forked OS process per rank on one shared runtime
  (:mod:`repro.comm.backends.forked`) — ranks escape the GIL, so real
  parallel speedups are measurable.  They differ in where collective
  payloads go: shared-memory deposit slots, or length-prefixed frames on a
  TCP mesh (the wire backend whose collectives genuinely serialize onto a
  byte stream).
* ``"mpi"`` (:class:`~repro.comm.backends.mpi.MPIBackend`) maps the same
  interface onto real MPI collectives via ``mpi4py``; it registers only when
  ``mpi4py`` is importable, otherwise the name resolves to a clear
  "unavailable" error (see :func:`register_unavailable_backend`).

A backend supplies synchronization, mailboxes and — where it has them —
deposit slots; the collectives themselves exist once, in
:class:`~repro.comm.communicator.Comm`, which moves through the slots when
the group state has them and point-to-point when it does not.

Third-party backends plug in through :func:`register_backend`; everything
downstream selects a backend by name (``NMFConfig.backend``,
``fit(..., backend=...)``, the CLI's ``--backend`` flag).
"""

from __future__ import annotations

import abc
import difflib
import queue
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Type, Union

from repro.util.errors import CommunicatorError

#: Something :func:`make_backend` can turn into a Backend instance.
BackendSpec = Union[str, "Backend", Type["Backend"]]


class PeerAbortError(CommunicatorError):
    """Raised in ranks that were parked when a peer rank failed.

    The peer's original exception is the one re-raised to the caller
    (backends prefer real failures over these echoes when selecting which
    exception to surface); this marker only unwinds the surviving ranks'
    stacks.
    """


@dataclass
class _RankFailure:
    """Marker carrying an exception raised inside one rank's program."""

    rank: int
    exception: BaseException


def raise_first_failure(results: List[Any]) -> None:
    """Re-raise the most informative :class:`_RankFailure` in ``results``, if any.

    Real errors are preferred over the :class:`PeerAbortError` echoes a
    backend injects into peers when one rank fails; ties break by rank.
    """
    failures = [r for r in results if isinstance(r, _RankFailure)]
    if not failures:
        return
    real = [f for f in failures if not isinstance(f.exception, PeerAbortError)]
    first = min(real or failures, key=lambda f: f.rank)
    raise first.exception


class SharedGroupState:
    """Shared-memory state for one communicator group.

    One instance is shared by all ranks of a communicator.  It provides

    * ``slots`` — a list with one deposit slot per rank, which the
      collectives move through (deposit, barrier, read, barrier) — or
      ``None`` on a substrate with nowhere to deposit (``socket``, ``mpi``),
      whose collectives move over the mailboxes instead;
    * ``barrier`` — a reusable :class:`threading.Barrier` sized to the group;
    * ``mailboxes`` — per (src, dst) FIFO queues for point-to-point messages;
    * ``registry`` + ``lock`` — a scratch dict used to create sub-group state
      exactly once during ``split``.

    Subclasses (the lockstep backend's group state) override :meth:`wait`,
    :meth:`abort`, :meth:`make_subgroup` and :meth:`_new_mailbox` to swap the
    synchronization mechanism while keeping the deposit-slot protocol.
    """

    #: Seconds ``Comm.recv`` waits when the caller names no ``timeout``.
    recv_timeout = 60.0

    def __init__(self, size: int):
        if size < 1:
            raise CommunicatorError(f"communicator size must be >= 1, got {size}")
        self.size = size
        self.slots: Optional[List[Any]] = [None] * size
        self.lock = threading.Lock()
        self.registry: Dict[Any, Any] = {}
        self._barrier: Optional[threading.Barrier] = None
        self._barrier_lock = threading.Lock()
        self._mailboxes: Dict[Tuple[int, int], Any] = {}
        self._mailbox_lock = threading.Lock()

    @property
    def barrier(self) -> threading.Barrier:
        """The group's reusable barrier, created on first use.

        Lazy because subclasses that synchronize through a scheduler (the
        lockstep backend) never touch it — a 256-rank lockstep run would
        otherwise allocate hundreds of dead Barrier objects across its
        sub-communicators.  Double-checked so the hot path (every barrier
        wait on the thread backend) is a plain attribute read, not a lock
        acquisition.
        """
        barrier = self._barrier
        if barrier is None:
            with self._barrier_lock:
                if self._barrier is None:
                    self._barrier = threading.Barrier(self.size)
                barrier = self._barrier
        return barrier

    def _new_mailbox(self, src: int, dst: int) -> Any:
        """Create the FIFO used for (src → dst) messages (hook for subclasses)."""
        return queue.SimpleQueue()

    def mailbox(self, src: int, dst: int) -> Any:
        key = (src, dst)
        with self._mailbox_lock:
            box = self._mailboxes.get(key)
            if box is None:
                box = self._new_mailbox(src, dst)
                self._mailboxes[key] = box
            return box

    def make_subgroup(self, size: int, members=None, reg_key=None) -> "SharedGroupState":
        """State for a sub-communicator of ``size`` ranks (used by ``Comm.split``).

        ``members`` (the subgroup's ranks, group-local to the parent) and
        ``reg_key`` (the split's registry key) let cross-process states build
        a globally agreed identity for the new group; in-process states need
        neither.
        """
        return SharedGroupState(size)

    def wait(self) -> None:
        """Block until every rank of the group reaches this point."""
        try:
            self.barrier.wait()
        except threading.BrokenBarrierError as exc:
            # An echo of a peer's failure, not a root cause: raise the marker
            # type so raise_first_failure surfaces the peer's real exception.
            raise PeerAbortError("a peer rank failed; barrier broken") from exc

    def abort(self) -> None:
        """Break the barriers so peer ranks do not hang after a failure.

        This group's and, recursively, those of every sub-group split from it:
        the failed rank's peers may be waiting in a row or column
        communicator's collective, or be about to enter one.
        """
        self.barrier.abort()
        with self.lock:
            subgroups = [s for s in self.registry.values() if isinstance(s, SharedGroupState)]
        for subgroup in subgroups:
            subgroup.abort()


class Backend(abc.ABC):
    """Executes an SPMD program on ``n_ranks`` ranks and collects results.

    Parameters
    ----------
    n_ranks:
        Number of SPMD ranks to run.
    name:
        Optional label used in thread names and diagnostics.
    """

    def __init__(self, n_ranks: int, name: str = "spmd"):
        if n_ranks < 1:
            raise CommunicatorError(f"n_ranks must be >= 1, got {n_ranks}")
        self.n_ranks = n_ranks
        self.name = name

    @abc.abstractmethod
    def run(self, program: Callable[..., Any], *args: Any, **kwargs: Any) -> List[Any]:
        """Run ``program(comm, *args, **kwargs)`` on every rank.

        Returns the per-rank return values in rank order.  If any rank
        raises, the most informative failure (lowest rank, preferring real
        errors over peer-abort echoes) is re-raised in the caller after all
        ranks have stopped.
        """

    def _launch(self, worker: Callable[[int], None]) -> None:
        """Run ``worker(rank)`` for every rank on carrier threads.

        Shared scaffolding for backends whose ranks live on threads: a
        single rank runs inline, otherwise one named thread per rank is
        started and joined.  The worker owns all failure handling (it must
        never raise).
        """
        if self.n_ranks == 1:
            worker(0)
            return
        threads = [
            threading.Thread(target=worker, args=(rank,), name=f"{self.name}-rank{rank}")
            for rank in range(self.n_ranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_ranks={self.n_ranks}, name={self.name!r})"


_REGISTRY: Dict[str, Type[Backend]] = {}

#: Backends that exist but cannot run here (missing optional dependency),
#: mapped to a human-readable reason.  Resolving such a name raises the
#: reason instead of the generic "unknown backend" error, and the name is
#: excluded from :func:`available_backends`.
_UNAVAILABLE: Dict[str, str] = {}


def register_backend(name: str, cls: Type[Backend]) -> None:
    """Register a backend class under ``name`` (overwrites any previous entry)."""
    if not isinstance(name, str) or not name:
        raise CommunicatorError(f"backend name must be a non-empty string, got {name!r}")
    if not (isinstance(cls, type) and issubclass(cls, Backend)):
        raise CommunicatorError(f"backend class must subclass Backend, got {cls!r}")
    _UNAVAILABLE.pop(name, None)
    _REGISTRY[name] = cls


def register_unavailable_backend(name: str, reason: str) -> None:
    """Declare that backend ``name`` exists but cannot run in this environment.

    ``reason`` should tell the user what to install or change; it becomes the
    error message when the name is selected.  A later successful
    :func:`register_backend` for the same name clears the entry.
    """
    if name not in _REGISTRY:
        _UNAVAILABLE[name] = reason


def available_backends() -> List[str]:
    """Names of all registered backends, sorted."""
    _ensure_builtin_backends()
    return sorted(_REGISTRY)


def get_backend_class(name: str) -> Type[Backend]:
    """Look up a backend class by registry name."""
    _ensure_builtin_backends()
    try:
        return _REGISTRY[name]
    except KeyError:
        if name in _UNAVAILABLE:
            raise CommunicatorError(
                f"backend {name!r} is not available in this environment: "
                f"{_UNAVAILABLE[name]} (available backends: "
                f"{', '.join(sorted(_REGISTRY))})"
            ) from None
        close = difflib.get_close_matches(str(name), list(_REGISTRY), n=1)
        hint = f"did you mean {close[0]!r}? " if close else ""
        raise CommunicatorError(
            f"unknown backend {name!r}; {hint}available backends: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def make_backend(spec: BackendSpec, n_ranks: int, name: str = "spmd") -> Backend:
    """Resolve ``spec`` (name, class, or instance) into a Backend instance."""
    if isinstance(spec, Backend):
        if spec.n_ranks != n_ranks:
            raise CommunicatorError(
                f"backend instance is sized for {spec.n_ranks} ranks, "
                f"but {n_ranks} were requested"
            )
        return spec
    if isinstance(spec, type) and issubclass(spec, Backend):
        return spec(n_ranks, name=name)
    if isinstance(spec, str):
        return get_backend_class(spec)(n_ranks, name=name)
    raise CommunicatorError(
        f"backend must be a name, Backend class or Backend instance, got {spec!r}"
    )


def run_spmd(
    n_ranks: int,
    program: Callable[..., Any],
    *args: Any,
    name: str = "spmd",
    backend: BackendSpec = "thread",
    **kwargs: Any,
) -> List[Any]:
    """Convenience wrapper: run ``program(comm, *args, **kwargs)`` on ``n_ranks`` ranks.

    ``backend`` selects the execution substrate by registry name (default
    ``"thread"``); it also accepts a Backend class or instance.
    """
    return make_backend(backend, n_ranks, name=name).run(program, *args, **kwargs)


def _ensure_builtin_backends() -> None:
    """Import the built-in backend modules so they self-register."""
    # Deferred so `import repro.comm.backends.base` alone stays cycle-free.
    import repro.comm.backends.lockstep  # noqa: F401
    import repro.comm.backends.mpi  # noqa: F401
    import repro.comm.backends.process  # noqa: F401
    import repro.comm.backends.socket  # noqa: F401
    import repro.comm.backends.thread  # noqa: F401
