"""The one forked-SPMD runtime: launcher, token transport, collection.

Every backend that runs one forked OS process per rank — ``"process"`` and
``"socket"`` — is this module plus one decision: *where collective payloads
go*, which is what :meth:`ForkedRuntime.make_slots` returns — shared-memory
deposit slots, or ``None`` (then :class:`~repro.comm.communicator.Comm`
moves every collective over the mailboxes below).  :class:`ForkedBackend`
owns everything else:

* **Mesh.**  The parent binds one listening socket per rank on
  ``127.0.0.1:0`` *before* forking, so every child knows every port and the
  kernel backlog absorbs early connectors.  After the fork, rank ``r`` keeps
  its own listener, *connects* to every rank ``s < r`` (announcing itself
  with a hello frame) and *accepts* from every rank ``t > r`` — a full mesh
  of ``p(p-1)/2`` persistent ``TCP_NODELAY`` connections carrying the frames
  of :mod:`repro.comm.wire`.
* **Token transport.**  One daemon reader thread per peer connection decodes
  incoming frames and buckets them by key under a shared condition; waiting
  is purely key-based.  Sends take a per-peer lock, so frames never
  interleave.
  The key space: ``("bar", uid, epoch, round, src)`` for the ``log2 p``
  rounds of the dissemination barrier of group ``uid`` (a runtime whose ranks
  share memory overrides :meth:`ForkedRuntime.barrier` and keeps its tokens
  there; the mesh still carries its aborts and EOFs), ``("msg", uid, src)``
  for that group's point-to-point mailboxes (per-sender FIFO), and the
  strings :data:`_ABORT` / :data:`_HELLO`, which no tuple key can collide
  with.  Groups created after the fork (``Comm.split``) need no new OS
  resource: their ``uid`` — the parent's uid plus the split's registry key —
  is agreed by construction.
* **Failure handling.**  A rank that raises sends an abort frame to every
  peer and ships its exception to the parent.  A rank that dies silently
  (killed, segfaulted) closes its sockets: every survivor's reader sees EOF
  and wakes its blocked waiters with a
  :class:`~repro.comm.backends.base.PeerAbortError` *naming the dead peer*,
  while the parent reads EOF where the rank's report frame should be and
  records the death with its pid and exit code.
  Recv and mesh-construction timeouts also name the peer they waited for.
* **Teardown.**  Ranks pass a shutdown barrier before closing their side of
  the mesh, so a fast rank's close never aborts a slow one; the parent
  terminates stragglers and calls the runtime's ``release_parent`` hook.

The ranks are forked (the SPMD programs close over unpicklable state —
matrices, configs, observers — which fork inherits for free), so these
backends are POSIX-only.
"""

from __future__ import annotations

import abc
import functools
import pickle
import queue
import select
import socket as socketlib
import threading
import time
import warnings
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.comm.backends.base import (
    Backend,
    PeerAbortError,
    SharedGroupState,
    _RankFailure,
    raise_first_failure,
)
from repro.comm.communicator import Comm
from repro.comm.wire import (
    encode_frame,
    encode_frame_parts,
    read_frame,
    recv_into_exact,
    send_frame,
)
from repro.util.cpus import available_cpus, cap_blas_threads, openblas_pools
from repro.util.errors import CommunicatorError

#: Key of abort frames (never collides with the tuple-typed token keys).
_ABORT = "__abort__"
#: Key of the connection-handshake frame announcing the connecting rank.
_HELLO = "__hello__"

#: Default seconds a rank waits on a barrier/recv token before declaring the
#: group stuck, and for the full mesh to come up.
DEFAULT_TIMEOUT = 300.0
DEFAULT_CONNECT_TIMEOUT = 30.0


class ForkedRuntime:
    """Fork-inherited plumbing shared by the parent and every rank.

    Created in the parent before the fork so the listening sockets (and
    their ports) are plain inherited resources; everything mutable past
    :meth:`bind` — connections, reader threads, token buffers — is
    per-process state.  Subclasses say where collective payloads go by
    implementing :meth:`make_slots`, and extend :meth:`close` /
    :meth:`release_parent` if that storage needs cleanup.
    """

    def __init__(self, n_ranks: int, timeout: float, connect_timeout: float):
        self.n_ranks = n_ranks
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        #: One pre-bound listener per rank; children keep only their own.
        self.listeners = [
            socketlib.create_server(("127.0.0.1", 0), backlog=max(n_ranks, 8))
            for _ in range(n_ranks)
        ]
        self.ports = [sock.getsockname()[1] for sock in self.listeners]
        # -- per-process state (populated by bind() in each child) -----------
        self.rank: Optional[int] = None
        self._conns: Dict[int, socketlib.socket] = {}
        self._send_locks: Dict[int, threading.Lock] = {}
        self._readers: List[threading.Thread] = []
        self._buffers: Dict[Any, deque] = {}
        self._cond = threading.Condition()
        self._aborted = False
        self._abort_reason: Optional[str] = None
        self._closing = False
        self._epochs: Dict[Any, int] = {}

    def make_slots(self, members: Tuple[int, ...]) -> Any:
        """The deposit slots of the group whose world ranks are ``members``.

        ``None`` when payloads have nowhere to be deposited: collectives on
        that group then move point-to-point.
        """
        raise NotImplementedError

    # -- mesh construction ---------------------------------------------------
    def bind(self, rank: int) -> None:
        """Adopt ``rank``'s identity: build this rank's side of the TCP mesh."""
        self.rank = rank
        for other, listener in enumerate(self.listeners):
            if other != rank:
                listener.close()
        own = self.listeners[rank]
        own.settimeout(self.connect_timeout)

        accepted: Dict[int, socketlib.socket] = {}
        accept_error: List[BaseException] = []
        expected_from = set(range(rank + 1, self.n_ranks))

        def acceptor() -> None:
            try:
                while len(accepted) < len(expected_from):
                    conn, _ = own.accept()
                    conn.settimeout(self.connect_timeout)
                    key, peer = read_frame(functools.partial(recv_into_exact, conn))
                    if key != _HELLO or peer not in expected_from or peer in accepted:
                        conn.close()
                        raise CommunicatorError(
                            f"rank {rank} received a malformed hello "
                            f"({key!r}, {peer!r}) while building the mesh"
                        )
                    accepted[peer] = conn
            except BaseException as exc:  # noqa: BLE001 - reported by bind()
                accept_error.append(exc)

        accept_thread = None
        if expected_from:
            accept_thread = threading.Thread(
                target=acceptor, name=f"repro-r{rank}-accept", daemon=True
            )
            accept_thread.start()

        try:
            for peer in range(rank):
                # A plain connect to the numeric address: create_connection
                # would resolve it with getaddrinfo, which imports
                # encodings.idna in every freshly forked rank.
                conn = socketlib.socket(socketlib.AF_INET, socketlib.SOCK_STREAM)
                conn.settimeout(self.connect_timeout)
                try:
                    conn.connect(("127.0.0.1", self.ports[peer]))
                except OSError as exc:
                    conn.close()
                    raise CommunicatorError(
                        f"rank {rank} could not connect to peer rank {peer} on "
                        f"port {self.ports[peer]} within "
                        f"{self.connect_timeout:g}s: {exc}"
                    ) from exc
                conn.sendall(encode_frame(_HELLO, rank))
                self._register(peer, conn)
            if accept_thread is not None:
                accept_thread.join(self.connect_timeout)
                if accept_thread.is_alive():
                    missing = sorted(expected_from - set(accepted))
                    raise CommunicatorError(
                        f"rank {rank} timed out after {self.connect_timeout:g}s "
                        f"waiting for peer rank(s) {missing} to connect while "
                        "building the socket mesh"
                    )
                if accept_error:
                    raise CommunicatorError(
                        f"rank {rank} failed to accept its peers: {accept_error[0]}"
                    ) from accept_error[0]
                for peer, conn in accepted.items():
                    self._register(peer, conn)
        finally:
            own.close()

        for peer in sorted(self._conns):
            reader = threading.Thread(
                target=self._reader,
                args=(peer, self._conns[peer]),
                name=f"repro-r{rank}-from{peer}",
                daemon=True,
            )
            reader.start()
            self._readers.append(reader)

    def _register(self, peer: int, conn: socketlib.socket) -> None:
        conn.setsockopt(socketlib.IPPROTO_TCP, socketlib.TCP_NODELAY, 1)
        conn.settimeout(None)  # reader threads block; EOF ends them
        self._conns[peer] = conn
        self._send_locks[peer] = threading.Lock()

    def after_fork(self) -> None:
        """Parent-side cleanup after the fork: the children own the mesh now."""
        for listener in self.listeners:
            try:
                listener.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass

    # -- frame demux ---------------------------------------------------------
    def _reader(self, peer: int, conn: socketlib.socket) -> None:
        """Decode frames from ``peer`` forever, bucketing tokens by key."""
        read_into = functools.partial(recv_into_exact, conn)
        try:
            while True:
                key, payload = read_frame(read_into)
                with self._cond:
                    if key == _ABORT:
                        self._aborted = True
                        self._abort_reason = payload
                    else:
                        self._buffers.setdefault(key, deque()).append(payload)
                    self._cond.notify_all()
        except (ConnectionError, OSError, CommunicatorError):
            with self._cond:
                if not self._closing and not self._aborted:
                    self._aborted = True
                    self._abort_reason = (
                        f"rank {self.rank} lost the connection to peer rank "
                        f"{peer} (connection closed mid-stream); peer rank "
                        f"{peer} likely crashed or was killed"
                    )
                self._cond.notify_all()

    # -- token transport -----------------------------------------------------
    def send_token(self, dst: int, key: Any, payload: Any) -> None:
        if dst == self.rank:
            with self._cond:
                self._buffers.setdefault(key, deque()).append(payload)
                self._cond.notify_all()
            return
        # Array segments are views of the caller's arrays (no staging copy);
        # the blocking send returns once the kernel has taken every byte.
        parts = encode_frame_parts(key, payload)
        conn = self._conns[dst]
        try:
            with self._send_locks[dst]:
                send_frame(conn, parts)
        except OSError as exc:
            raise PeerAbortError(
                f"rank {self.rank} could not send to peer rank {dst} "
                f"({exc}); peer rank {dst} likely crashed or was killed"
            ) from exc

    def recv_token(
        self, key: Any, timeout: float, empty_on_timeout: bool = False
    ) -> Any:
        """Wait for a token matching ``key`` (reader threads fill the buckets)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                bucket = self._buffers.get(key)
                if bucket:
                    return bucket.popleft()
                if self._aborted:
                    self._raise_abort()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    if empty_on_timeout:
                        raise queue.Empty
                    raise CommunicatorError(
                        f"rank {self.rank} timed out after {timeout:g}s waiting "
                        f"for wire token {key!r}; a peer rank likely crashed or "
                        "is stuck"
                    )
                self._cond.wait(remaining)

    def _raise_abort(self) -> None:
        raise PeerAbortError(self._abort_reason or "a peer rank failed; run aborted")

    def broadcast_abort(self, reason: str) -> None:
        """Wake every rank (local waiters and all peers) with an abort notice."""
        with self._cond:
            self._aborted = True
            self._abort_reason = reason
            self._cond.notify_all()
        for peer in list(self._conns):
            try:
                with self._send_locks[peer]:
                    self._conns[peer].sendall(encode_frame(_ABORT, reason))
            except OSError:  # peer already gone; its readers saw EOF
                pass

    # -- dissemination barrier -----------------------------------------------
    def barrier(self, uid: Any, members: Tuple[int, ...]) -> None:
        """Synchronize the ``members`` group (log2 rounds of shifted tokens)."""
        n = len(members)
        if n == 1:
            with self._cond:
                if self._aborted:
                    self._raise_abort()
            return
        me = members.index(self.rank)
        epoch = self._epochs.get(uid, 0)
        self._epochs[uid] = epoch + 1
        distance, round_no = 1, 0
        while distance < n:
            dst = members[(me + distance) % n]
            src = members[(me - distance) % n]
            self.send_token(dst, ("bar", uid, epoch, round_no, self.rank), None)
            self.recv_token(("bar", uid, epoch, round_no, src), timeout=self.timeout)
            distance *= 2
            round_no += 1

    # -- teardown ------------------------------------------------------------
    def close(self) -> None:
        """Tear down this rank's side of the mesh (peers see clean EOFs)."""
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        for conn in self._conns.values():
            try:
                conn.shutdown(socketlib.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
        for reader in self._readers:
            reader.join(timeout=1.0)

    def release_parent(self) -> None:
        """Parent-side cleanup once every rank has stopped (nothing to free here)."""


class _Mailbox:
    """FIFO (src → dst) channel over the destination rank's frame stream."""

    #: ``put`` returns once the frame is written, so senders need not copy.
    serializes = True

    def __init__(self, runtime: ForkedRuntime, uid: Any, src: int, dst: int):
        self._runtime = runtime
        self._key = ("msg", uid, src)
        self._dst = dst

    def put(self, item: Any) -> None:
        self._runtime.send_token(self._dst, self._key, item)

    def get(self, timeout: float) -> Any:
        # queue.Empty on timeout matches Comm.recv's diagnostic handling.
        return self._runtime.recv_token(self._key, timeout, empty_on_timeout=True)


class ForkedGroupState(SharedGroupState):
    """Group state whose mailboxes ride the runtime's TCP mesh, and whose
    barriers are the runtime's (mesh tokens, or shared-memory ones).

    ``slots`` is whatever the runtime provides for ``members``: shared-memory
    deposit slots on ``"process"``, none on ``"socket"``, whose collectives
    move point-to-point over the mesh.  A receive waits as long as a barrier
    does: the runtime's ``timeout``.
    """

    def __init__(self, runtime: ForkedRuntime, uid: Any, members: Sequence[int]):
        super().__init__(len(members))
        self.runtime = runtime
        self.recv_timeout = runtime.timeout
        self.uid = uid
        self.members = tuple(members)
        self.slots = runtime.make_slots(self.members)

    def _new_mailbox(self, src: int, dst: int) -> _Mailbox:
        return _Mailbox(self.runtime, self.uid, self.members[src], self.members[dst])

    def make_subgroup(self, size, members=None, reg_key=None) -> "ForkedGroupState":
        if members is None or len(members) != size:
            raise CommunicatorError(
                f"forked-backend subgroups need their {size} member ranks; update "
                "the caller to pass make_subgroup(size, members=..., reg_key=...)"
            )
        world_members = [self.members[i] for i in members]
        return ForkedGroupState(self.runtime, (self.uid, reg_key), world_members)

    def wait(self) -> None:
        self.runtime.barrier(self.uid, self.members)


def _picklable_exception(rank: int, exc: BaseException) -> BaseException:
    """The exception itself if it survives pickling, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return CommunicatorError(
            f"rank {rank} failed with unpicklable {type(exc).__name__}: {exc}"
        )


class _Collector:
    """What the parent has heard from the ranks so far."""

    def __init__(self, n_ranks: int, observers: Sequence[Any] = ()):
        self.results: List[Any] = [None] * n_ranks
        self.collected = [False] * n_ranks
        self._observers = observers

    def collect(self, message: Tuple[int, str, Any, Any]) -> None:
        """Record one ``(rank, status, payload, observer_states)`` report.

        ``observer_states`` is rank 0's observer ``__dict__`` list (``None``
        from every other rank); it is applied to the parent's observers here.
        """
        rank, status, payload, observer_states = message
        self.collected[rank] = True
        if status != "ok":
            self.results[rank] = _RankFailure(rank, payload)
            return
        self.results[rank] = payload
        for observer, state in zip(self._observers, observer_states or ()):
            if isinstance(state, dict):
                observer.__dict__.update(state)


class ForkedBackend(Backend):
    """Launches an SPMD program on ``n_ranks`` forked processes over one TCP mesh.

    Subclasses set :attr:`registry_name` and implement :meth:`_make_runtime`;
    the driver never asks which backend it is running.
    """

    #: The name this backend has in the backend table (used in diagnostics).
    registry_name: str
    def __init__(self, n_ranks: int, name: str, timeout: float):
        super().__init__(n_ranks, name=name)
        self.timeout = float(timeout)
        cpus = available_cpus()
        if n_ranks > cpus:
            warnings.warn(
                f"{self.registry_name} backend: {n_ranks} ranks oversubscribe "
                f"the {cpus} available CPU(s); ranks will time-slice rather "
                "than run concurrently (consider n_ranks <= cpu count, or the "
                "'lockstep' backend for large simulated grids)",
                RuntimeWarning,
                stacklevel=3,  # past the subclass __init__, to whoever built it
            )

    @abc.abstractmethod
    def _make_runtime(self) -> ForkedRuntime:
        """The runtime (created pre-fork) that decides where payloads go."""

    def _fork_context(self):
        import multiprocessing as mp

        try:
            return mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            raise CommunicatorError(
                f"the {self.registry_name!r} backend requires the fork start "
                "method (POSIX only); use the 'thread' or 'lockstep' backend here"
            ) from None

    def run(self, program: Callable[..., Any], *args: Any, **kwargs: Any) -> List[Any]:
        if self.n_ranks == 1:
            # A single rank needs no mesh; run inline like the other backends.
            comm = Comm(state=SharedGroupState(1), rank=0, group_ranks=(0,))
            return [program(comm, *args, **kwargs)]

        ctx = self._fork_context()
        runtime = self._make_runtime()
        all_ranks = tuple(range(self.n_ranks))
        world = ForkedGroupState(runtime, ("world",), all_ranks)
        # One stream per rank for its report.  The report leaves as a wire
        # frame written by the rank's main thread — factor blocks as raw
        # segments of the arrays themselves, no pickled copy, nothing running
        # behind the rank's teardown — and EOF without a frame is a dead rank.
        reports = [socketlib.socketpair() for _ in all_ranks]
        observers = kwargs.get("observers") or ()
        # Each rank's share of the CPUs for the BLAS pool it inherits.
        blas_pools, blas_threads = openblas_pools(), max(1, available_cpus() // self.n_ranks)

        def worker(rank: int) -> None:
            cap_blas_threads(blas_pools, blas_threads)
            for other, (reader, writer) in enumerate(reports):
                reader.close()
                if other != rank:
                    writer.close()

            def report(status: str, payload: Any, states: Any = None) -> None:
                send_frame(reports[rank][1], encode_frame_parts(rank, (status, payload, states)))

            try:
                runtime.bind(rank)
            except BaseException as exc:  # noqa: BLE001 - must reach the parent
                report("err", _picklable_exception(rank, exc))
                runtime.close()
                return
            comm = Comm(state=world, rank=rank, group_ranks=all_ranks)
            try:
                value = program(comm, *args, **kwargs)
                states = None
                if rank == 0 and observers:
                    # Ship rank 0's observer state home so stateful observers
                    # (history recorders) behave as they do on
                    # the in-process backends.  Best-effort: unpicklable
                    # observers simply keep their parent-side state.
                    try:
                        states = [getattr(o, "__dict__", None) for o in observers]
                        pickle.dumps(states)
                    except Exception:
                        states = None
                try:
                    # All ranks drain in-flight frames before anyone tears the
                    # mesh down, so a fast rank's close never aborts a slow one.
                    runtime.barrier(("shutdown",), all_ranks)
                except PeerAbortError:
                    # A peer failed after this rank finished; the failing rank
                    # reports the root cause, this rank's value is still good.
                    pass
                report("ok", value, states)
            except BaseException as exc:  # noqa: BLE001 - must not strand peers
                runtime.broadcast_abort(
                    f"rank {rank} failed: {type(exc).__name__}: {exc}"
                )
                report("err", _picklable_exception(rank, exc))
            finally:
                runtime.close()

        processes = [
            ctx.Process(target=worker, args=(rank,), name=f"{self.name}-rank{rank}")
            for rank in range(self.n_ranks)
        ]
        collector = _Collector(self.n_ranks, observers)
        try:
            for proc in processes:
                proc.start()
            runtime.after_fork()
            pending = {}
            for rank, (reader, writer) in enumerate(reports):
                writer.close()  # the rank holds the only write end: its exit is an EOF here
                pending[reader] = rank
            while pending:
                for reader in select.select(list(pending), [], [])[0]:
                    rank = pending.pop(reader)
                    collector.collect(self._read_report(reader, rank, processes[rank]))
            for proc in processes:
                proc.join()
        finally:
            for proc in processes:
                if proc.is_alive():  # pragma: no cover - defensive teardown
                    proc.terminate()
                    proc.join()
            for reader, writer in reports:
                reader.close()
                writer.close()
            runtime.release_parent()

        raise_first_failure(collector.results)
        return collector.results

    @staticmethod
    def _read_report(reader, rank: int, proc) -> Tuple[int, str, Any, Any]:
        """Rank ``rank``'s report frame, or the record of its silent death.

        Surviving ranks unblock on their own: the dead rank's sockets close,
        its peers' reader threads see EOF and raise an abort naming it.
        """
        try:
            _, (status, payload, states) = read_frame(functools.partial(recv_into_exact, reader))
            return rank, status, payload, states
        except ConnectionError:
            proc.join()
            error = CommunicatorError(
                f"rank {rank} (pid {proc.pid}) died with exit code "
                f"{proc.exitcode} before returning its result; "
                "surviving ranks were aborted"
            )
            return rank, "err", error, None
