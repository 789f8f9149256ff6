"""Pre-forked serving: one worker process per CPU this process may use.

A projection spends most of its time in Python that holds the GIL (body
decoding, the small NumPy calls of a batched solve, response encoding), so
a second thread in the server process adds a hand-off and no parallelism.
More processes do scale, as the paper's ranks do: each holds what it needs
in its own memory and coordinates explicitly.  ``repro serve`` makes the
listening sockets with :func:`repro.serve.server.bind` and loads the
models; :func:`serve` then forks one worker per additional CPU
(:func:`repro.util.available_cpus`) before any event loop or thread starts.
Each worker runs its own :class:`~repro.serve.server.ProjectionService` and
:class:`~repro.serve.server.ProjectionServer` on the shared sockets, so a
projection or ``/healthz`` is batched, solved and answered entirely inside
whichever worker accepted the connection.  Worker 0 starts every other
worker's server over its control channel and reports ready once all of
them listen.  With one available CPU nothing is forked.

Mutable state has one owner, worker 0 (the process that was started):

* every other worker forwards ``/stats``, ``ingest`` and ``reload`` to
  worker 0 over its own socketpair, one :mod:`repro.comm.wire` frame per
  message;
* worker 0 runs the one :class:`~repro.serve.project.ModelRefresher` per
  model and every :meth:`~repro.serve.store.ModelStore.reload`, pushes each
  new model version to every worker, and answers only once each has
  installed it (:meth:`~repro.serve.store.ModelStore.install`);
* worker 0 answers ``/stats`` with :meth:`ServeStats.merge
  <repro.serve.stats.ServeStats.merge>` of every worker's stats.

Lifetimes: SIGINT or SIGTERM on worker 0 stops accepting, closes the
control channels, reaps every worker and returns 0.  A worker ignores
SIGINT (a terminal sends it to the whole process group) and exits when its
channel reaches EOF, so no worker outlives worker 0, even a SIGKILLed one.
Worker 0 reaps a worker that dies and keeps serving; ``/healthz`` reports
how many workers are alive out of how many were started.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import signal
import socket
import sys
import traceback
from typing import TYPE_CHECKING, Any, Awaitable, Callable, Dict, List, Optional

from repro.comm.wire import PREAMBLE, decode_frame, encode_frame, frame_length
from repro.serve.errors import ServeError
from repro.serve.stats import ServeStats
from repro.serve.store import ModelEntry
from repro.util.cpus import available_cpus
from repro.util.errors import CommunicatorError

if TYPE_CHECKING:
    from repro.serve.server import ProjectionServer

__all__ = ["Peers", "serve"]

#: Model actions whose state worker 0 owns (``/stats`` is forwarded too).
_FORWARDED_ACTIONS = ("ingest", "reload")

#: Seconds worker 0 waits for a worker to exit before it kills it.
_REAP_TIMEOUT_S = 5.0


def serve(
    build: Callable[[int], "ProjectionServer"],
    *,
    ready: Callable[["ProjectionServer"], Any],
    until: Optional[Callable[["ProjectionServer"], Awaitable[Any]]] = None,
) -> int:
    """Serve with one worker per available CPU; the exit code.

    ``build(worker)`` makes worker ``worker``'s server, in that worker's
    process after the fork; every server must use the same listening
    sockets.  On worker 0, ``ready(server)`` runs once every worker
    listens; then ``until(server)``, if given, runs and its return shuts
    every worker down, and otherwise worker 0 serves until SIGINT or
    SIGTERM.
    """
    started = available_cpus()
    pairs = [socket.socketpair() for _ in range(started - 1)]
    pids: Dict[int, int] = {}
    try:
        for worker in range(1, started):
            pid = os.fork()
            if pid == 0:
                _run_worker(build, worker, started, pairs)  # never returns
            pids[worker] = pid
    except BaseException:
        for pair in pairs:
            for end in pair:
                end.close()  # every forked worker sees EOF and exits
        for pid in pids.values():
            os.waitpid(pid, 0)
        raise
    for _, theirs in pairs:
        theirs.close()
    workers = {worker: (pairs[worker - 1][0], pid) for worker, pid in pids.items()}
    return asyncio.run(_primary(build(0), started, workers, ready, until))


def _run_worker(build, worker: int, started: int, pairs: List[tuple]) -> None:
    """Worker ``worker``'s whole life in the forked child; never returns."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # worker 0 decides when to stop
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        channel = pairs[worker - 1][1]
        for primary_end, worker_end in pairs:
            primary_end.close()
            if worker_end is not channel:
                worker_end.close()
        asyncio.run(_worker(build(worker), started, channel))
        code = 0
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)  # never run the parent's atexit hooks or flush its buffers


async def _worker(server: "ProjectionServer", started: int, sock: socket.socket) -> None:
    peers = server.peers = Peers(server, started)
    channel = await peers.connect(0, sock)
    try:
        await channel.closed  # worker 0 closed its end, or died
    finally:
        await server.stop()  # started by worker 0's "start" call


async def _primary(server, started, workers, ready, until) -> int:
    peers = Peers(server, started)
    for worker, (sock, pid) in workers.items():
        await peers.connect(worker, sock, pid=pid)
    if workers:
        server.peers = peers
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    signals = (signal.SIGINT, signal.SIGTERM) if until is None else ()
    for signum in signals:
        loop.add_signal_handler(signum, stop.set)
    try:
        await server.start()
        await peers.start()
        ready(server)
        await (until(server) if until is not None else stop.wait())
    finally:
        for signum in signals:
            loop.remove_signal_handler(signum)
        await server.stop()
        await peers.close()
    return 0


class Peers:
    """What one worker knows of the others: ``ProjectionServer.peers``.

    On worker 0 it holds a control channel to every live worker; on any
    other worker, the one channel to worker 0.
    """

    def __init__(self, server: "ProjectionServer", started: int):
        self.server = server
        self.started = started
        self.alive = started
        self.channels: Dict[int, _Channel] = {}
        self._pids: Dict[int, int] = {}
        self._watchers: List[asyncio.Future] = []
        self._closing = False

    async def connect(self, worker: int, sock: socket.socket, pid: Optional[int] = None):
        channel = await _Channel.open(sock, self._handle)
        self.channels[worker] = channel
        if pid is not None:
            self._pids[worker] = pid
            watcher = asyncio.ensure_future(self._watch(worker, channel))
            self._watchers.append(watcher)
        return channel

    # -- what the server asks ------------------------------------------------
    def forwards(self, path: str) -> bool:
        """Whether this worker hands the request for ``path`` to worker 0."""
        return self.server.worker != 0 and (
            path == "/stats" or path.rsplit("/", 1)[-1] in _FORWARDED_ACTIONS
        )

    async def forward(self, method: str, path: str, body: bytes):
        """Worker 0's ``(status, payload)`` for a request this worker received."""
        return await self.channels[0].call("respond", method, path, body)

    async def publish(self, entry: ModelEntry) -> None:
        """Install ``entry`` on every live worker; returns once all have."""
        await self._each("install", entry)

    async def start(self) -> None:
        """Start every other live worker's server; returns once all listen."""
        await self._each("start")

    async def stats(self) -> List[ServeStats]:
        """Every other live worker's stats."""
        return await self._each("stats")

    # -- the control protocol ------------------------------------------------
    async def _each(self, op: str, *args) -> list:
        """``op`` on every peer; a peer that dies meanwhile is left out."""
        replies = await asyncio.gather(
            *(channel.call(op, *args) for channel in list(self.channels.values())),
            return_exceptions=True,
        )
        for reply in replies:
            if isinstance(reply, BaseException) and not isinstance(reply, ConnectionError):
                raise reply
        return [reply for reply in replies if not isinstance(reply, BaseException)]

    async def _handle(self, op: str, *args):
        if op == "respond":  # on worker 0: a forwarded request
            return await self.server.respond(*args)
        if op == "start":
            await self.server.start()
            return None
        if op == "install":
            self.server.store.install(*args)
            return None
        if op == "stats":
            return self.server.service.stats
        if op == "alive":
            (self.alive,) = args
            return None
        raise ServeError(f"unknown control call {op!r}")

    async def _watch(self, worker: int, channel: "_Channel") -> None:
        """Worker 0: reap ``worker`` once its channel closes, and tell the rest."""
        await channel.closed
        if self._closing:
            return
        del self.channels[worker]
        self.alive -= 1
        pid = self._pids.pop(worker)
        await _reap(pid)
        print(f"repro serve: worker {worker} (pid {pid}) exited; "
              f"{self.alive} of {self.started} workers serving", file=sys.stderr)
        await self._each("alive", self.alive)

    async def close(self) -> None:
        """Worker 0: close every channel and reap every worker."""
        self._closing = True
        for channel in self.channels.values():
            channel.close()
        # A watcher still reaping a worker that died just before finishes.
        await asyncio.gather(*self._watchers, *(_reap(pid) for pid in self._pids.values()))


class _Channel:
    """One end of a control socketpair: numbered calls both ways, each
    answered by one reply, every message one :mod:`repro.comm.wire` frame."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, handle):
        self._reader = reader
        self._writer = writer
        self._handle = handle
        self._calls: Dict[int, asyncio.Future] = {}
        self._numbers = itertools.count()
        self._answers: set = set()
        #: Done once the other end has closed its end or died.
        self.closed = asyncio.ensure_future(self._read())

    @classmethod
    async def open(cls, sock: socket.socket, handle) -> "_Channel":
        reader, writer = await asyncio.open_unix_connection(sock=sock)
        return cls(reader, writer, handle)

    async def call(self, op: str, *args):
        if self.closed.done():
            raise ConnectionError("the control channel is closed")
        number = next(self._numbers)
        reply = self._calls[number] = asyncio.get_running_loop().create_future()
        self._writer.write(encode_frame(("call", number), (op, args)))
        ok, value = await reply
        if not ok:
            raise ServeError(f"control call {op!r} failed in the peer: {value}")
        return value

    def close(self) -> None:
        self._writer.close()

    async def _read(self) -> None:
        try:
            while True:
                preamble = await self._reader.readexactly(PREAMBLE.size)
                frame = preamble + await self._reader.readexactly(frame_length(preamble))
                (kind, number), payload = decode_frame(frame)
                if kind == "reply":
                    self._calls.pop(number).set_result(payload)
                else:
                    answer = asyncio.ensure_future(self._answer(number, *payload))
                    self._answers.add(answer)
                    answer.add_done_callback(self._answers.discard)
        except (asyncio.IncompleteReadError, ConnectionError, CommunicatorError):
            pass  # the other end closed, died, or sent garbage: this channel is done
        finally:
            for reply in self._calls.values():
                if not reply.done():
                    reply.set_exception(ConnectionError("the control channel closed"))
            self._calls.clear()
            self._writer.close()

    async def _answer(self, number: int, op: str, args: tuple) -> None:
        try:
            reply = (True, await self._handle(op, *args))
        except Exception as exc:
            reply = (False, f"{type(exc).__name__}: {exc}")
        if not self._writer.is_closing():
            self._writer.write(encode_frame(("reply", number), reply))


async def _reap(pid: int) -> None:
    """Wait for worker ``pid`` to exit; kill it past :data:`_REAP_TIMEOUT_S`."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + _REAP_TIMEOUT_S
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if loop.time() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            await asyncio.sleep(0.01)
    except ChildProcessError:
        pass  # already reaped
