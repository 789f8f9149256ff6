"""NMF-as-a-service: the continuously batched asyncio projection front end.

Two layers, separable for testing:

:class:`ProjectionService`
    The transport-independent batcher.  ``submit()`` validates a request at
    admission (400-class errors are raised *here*, so a malformed request
    can never fail its co-batched neighbours), applies bounded-queue load
    shedding (503) and a per-request deadline (504), then parks the request
    in an ``asyncio.Queue``.  A single worker coroutine drains the queue by
    *continuous batching*: it takes the first queued request and whatever
    else is already queued, up to ``max_batch_columns`` columns, and solves
    at once — nothing waits for companions.  Requests that land while a
    solve runs form the next batch, so batches grow with load and an idle
    server answers a lone request immediately.  Each batch is grouped by
    model and every group is served with ONE batched NLS call through
    :func:`repro.serve.project.project_blocks`, called on the event loop:
    the small NumPy calls of a solve hold the GIL, so a worker thread would
    add a hand-off and no parallelism, and the loop stalls for at most one
    batch solve (about 1 ms for 256 columns at k = 16 on a 2-CPU Xeon
    host).  Responses are bit-identical to single-column
    scalar-kernel projection regardless of batch composition (the contract
    pinned in ``tests/serve/``).

:class:`ProjectionServer`
    An HTTP/1.1 front end over ``asyncio.start_server`` (one request per
    connection, ``Connection: close``).  Request bodies are decoded by
    ``orjson`` straight from the received bytes, and responses are encoded
    by ``orjson`` too; a NaN statistic (``/stats`` before the first batch:
    ``mean_batch_columns`` and the empty-window quantiles) is sent as
    ``null``, so every response is strict JSON.  Routes:

    ========  ==============================  ==================================
    method    path                            action
    ========  ==============================  ==================================
    GET       ``/healthz``                    liveness + deployed model listing
    GET       ``/stats``                      queue depth, batch-size histogram,
                                              p50/p99 latency, queue wait and
                                              solve time, shed/timeout counts
    POST      ``/v1/models/<name>/project``   batched projection
    POST      ``/v1/models/<name>/ingest``    incremental refresh (streaming fold)
    POST      ``/v1/models/<name>/reload``    hot reload from the backing file
    ========  ==============================  ==================================

    Request body for ``project``: ``{"column": [...]}`` (one column of m
    floats) or ``{"columns": [[...], ...]}`` (several), plus an optional
    ``"timeout"`` in seconds overriding the server's default deadline.  The
    response carries ``h`` (one coefficient vector per requested column),
    per-column relative ``residuals``, the serving model ``version`` and the
    coalesced batch size the request rode in.  A malformed request line,
    header or ``Content-Length`` and a body that is not a JSON object are
    answered with a 400 naming the problem.

The ``repro serve`` CLI subcommand wires a :class:`~repro.serve.store.
ModelStore` into both layers, once per worker process; see
:mod:`repro.serve.supervisor` and :func:`repro.cli.main`.
"""

from __future__ import annotations

import asyncio
import json
import re
import socket
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np
import orjson

from repro.nls.kernels import resolve_kernel
from repro.serve.errors import (
    DeadlineExceededError,
    ModelLoadError,
    ModelNotFoundError,
    ProjectionRequestError,
    ServeError,
    ServerOverloadedError,
)
from repro.serve.project import (
    MAX_BATCH_COLUMNS,
    ModelRefresher,
    project_blocks,
    projection_residuals,
    validate_columns,
)
from repro.serve.stats import ServeStats
from repro.serve.store import ModelStore

if TYPE_CHECKING:
    from repro.serve.supervisor import Peers

__all__ = [
    "MAX_BATCH_COLUMNS",
    "ProjectionResponse",
    "ProjectionService",
    "ProjectionServer",
    "bind",
    "run_self_test",
]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: kernel queue of connections not yet accepted on a listening socket.
LISTEN_BACKLOG = 128

#: request bodies above this are rejected with 413 before parsing.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: request and header lines above this are rejected with 400 (the stream limit).
MAX_LINE_BYTES = 64 * 1024

#: request bodies nested deeper than this are rejected with 400 before
#: decoding (a projection body nests 3 deep).
MAX_JSON_DEPTH = 1024


@dataclass
class ProjectionResponse:
    """What ``ProjectionService.submit`` resolves to for one request."""

    model: str
    version: int
    H: np.ndarray              # k × c, one column per requested column
    residuals: np.ndarray      # per-column relative residuals
    batch_columns: int         # coalesced batch size this request rode in


@dataclass
class _Pending:
    model: str
    columns: np.ndarray
    future: asyncio.Future
    deadline: float            # absolute, in loop.time() terms
    admitted: float = 0.0


class ProjectionService:
    """The continuous batcher: bounded queue → one NLS call per queued batch.

    Parameters
    ----------
    store:
        The :class:`ModelStore` holding deployed models.
    max_batch_columns:
        Column budget per batched NLS call: a batch takes queued requests
        until its column count reaches it (default :data:`MAX_BATCH_COLUMNS`).
    queue_limit:
        Maximum requests queued; admission beyond it raises
        :class:`ServerOverloadedError` (the HTTP 503).
    default_deadline:
        Per-request deadline in seconds when the request names none; requests
        still queued past their deadline fail with
        :class:`DeadlineExceededError` (the HTTP 504) instead of occupying a
        batch.
    kernel:
        BPP kernel the batched calls route through (``None`` and ``auto`` =
        registry default ``batched``; the CLI defaults to ``auto``).  Resolved
        here, so an unknown name raises :class:`SolverError` at construction
        instead of failing every request.
    """

    def __init__(
        self,
        store: ModelStore,
        *,
        max_batch_columns: int = MAX_BATCH_COLUMNS,
        queue_limit: int = 256,
        default_deadline: float = 2.0,
        kernel: Optional[str] = None,
        stats: Optional[ServeStats] = None,
    ):
        if max_batch_columns < 1:
            raise ValueError(f"max_batch_columns must be >= 1, got {max_batch_columns}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.kernel = resolve_kernel(kernel)
        self.store = store
        self.max_batch_columns = int(max_batch_columns)
        self.queue_limit = int(queue_limit)
        self.default_deadline = float(default_deadline)
        self.stats = stats if stats is not None else ServeStats()
        self._queue: asyncio.Queue = asyncio.Queue()
        self._worker_task: Optional[asyncio.Task] = None

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        if self._worker_task is not None:
            return
        self._worker_task = asyncio.get_running_loop().create_task(self._worker())

    async def stop(self) -> None:
        if self._worker_task is not None:
            self._worker_task.cancel()
            try:
                await self._worker_task
            except asyncio.CancelledError:
                pass
            self._worker_task = None

    # -- admission -----------------------------------------------------------
    async def submit(
        self, model: str, columns, *, timeout: Optional[float] = None
    ) -> ProjectionResponse:
        """Admit one request and await its batched response.

        Raises :class:`ModelNotFoundError` / :class:`ProjectionRequestError`
        / :class:`ServerOverloadedError` immediately at admission, and
        :class:`DeadlineExceededError` if the request expires in the queue.
        """
        if self._worker_task is None:
            raise ServeError("the projection service is not started")
        entry = self.store.get(model)
        X = validate_columns(columns, entry.m)
        if self._queue.qsize() >= self.queue_limit:
            self.stats.shed_total += 1
            raise ServerOverloadedError(
                f"request queue is full ({self.queue_limit} pending requests); "
                "load was shed — retry with backoff"
            )
        loop = asyncio.get_running_loop()
        now = loop.time()
        pending = _Pending(
            model=model,
            columns=X,
            future=loop.create_future(),
            deadline=now + (self.default_deadline if timeout is None else float(timeout)),
            admitted=now,
        )
        self._queue.put_nowait(pending)
        self.stats.record_admitted()
        self.stats.queue_depth = self._queue.qsize()
        try:
            response = await pending.future
        finally:
            self.stats.queue_depth = self._queue.qsize()
        self.stats.record_latency(loop.time() - pending.admitted)
        return response

    # -- the batcher ---------------------------------------------------------
    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            # Continuous batching: the first request plus whatever is already
            # queued; what arrives while this batch is solved is admitted once
            # the loop is free again and forms the next batch.
            batch: List[_Pending] = [await self._queue.get()]
            n_columns = batch[0].columns.shape[1]
            while n_columns < self.max_batch_columns and not self._queue.empty():
                batch.append(self._queue.get_nowait())
                n_columns += batch[-1].columns.shape[1]
            self.stats.queue_depth = self._queue.qsize()
            try:
                await self._serve_batch(batch, loop)
            except Exception as exc:  # defensive: the worker must survive
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(exc)

    async def _serve_batch(self, batch: List[_Pending], loop) -> None:
        now = loop.time()
        live: List[_Pending] = []
        for pending in batch:
            self.stats.record_queue_wait(now - pending.admitted)
            if pending.future.done():
                continue  # client went away
            if pending.deadline <= now:
                self.stats.deadline_total += 1
                pending.future.set_exception(
                    DeadlineExceededError(
                        f"request for model {pending.model!r} spent "
                        f"{now - pending.admitted:.3f}s queued, past its "
                        f"{pending.deadline - pending.admitted:.3f}s deadline"
                    )
                )
                continue
            live.append(pending)
        if not live:
            return

        groups: Dict[str, List[_Pending]] = {}
        for pending in live:
            groups.setdefault(pending.model, []).append(pending)

        for model, requests in groups.items():
            try:
                entry = self.store.get(model)
            except ModelNotFoundError as exc:  # model removed after admission
                self._fail(requests, exc)
                continue
            # A hot swap between admission and dequeue may have changed the
            # feature length; re-check so a stale request fails alone.
            stale = [r for r in requests if r.columns.shape[0] != entry.m]
            for r in stale:
                self._fail(
                    [r],
                    ProjectionRequestError(
                        f"model {model!r} was swapped to {entry.m} features "
                        f"while the request ({r.columns.shape[0]} features) "
                        "was queued; resubmit against the new version"
                    ),
                )
            requests = [r for r in requests if r.columns.shape[0] == entry.m]
            if not requests:
                continue
            X = np.concatenate([r.columns for r in requests], axis=1)
            solve_start = loop.time()
            try:
                # Per-request rhs blocks: each request's response bytes are
                # independent of its co-batched neighbours (see serve.project).
                H = project_blocks(
                    entry.W,
                    [r.columns for r in requests],
                    gram=entry.gram,
                    solver=entry.solver_for(self.kernel),
                )
            except Exception as exc:
                self._fail(requests, exc)
                continue
            solve_seconds = loop.time() - solve_start
            residuals = projection_residuals(entry.W, X, H)
            self.stats.record_batch(len(requests), X.shape[1], solve_seconds)
            offset = 0
            for pending in requests:
                c = pending.columns.shape[1]
                if not pending.future.done():
                    pending.future.set_result(
                        ProjectionResponse(
                            model=model,
                            version=entry.version,
                            H=H[:, offset:offset + c],
                            residuals=residuals[offset:offset + c],
                            batch_columns=X.shape[1],
                        )
                    )
                offset += c

    @staticmethod
    def _fail(requests: List[_Pending], exc: Exception) -> None:
        for pending in requests:
            if not pending.future.done():
                pending.future.set_exception(exc)


class ProjectionServer:
    """Asyncio HTTP/1.1 front end over a :class:`ProjectionService`.

    One request per connection; bodies and responses both go through
    ``orjson``.  ``sockets`` are listening sockets from :func:`bind` to
    serve on (``repro serve`` binds them once and hands them to every worker
    process); without them :meth:`start` binds ``host:port`` itself.
    ``worker`` numbers this server among those workers;
    every response names it in an ``X-Repro-Worker`` header.  ``peers`` is
    set by :mod:`repro.serve.supervisor` when there are other workers:
    worker 0 then publishes each new model version to them and merges their
    ``/stats``, and every other worker forwards ``/stats``, ``ingest`` and
    ``reload`` to worker 0.
    """

    def __init__(
        self,
        service: ProjectionService,
        host: str = "127.0.0.1",
        port: int = 8571,
        *,
        sockets: Optional[Sequence[socket.socket]] = None,
        worker: int = 0,
        refresh_every: int = 16,
    ):
        self.service = service
        self.store = service.store
        self.host = host
        self.port = port
        self.sockets = sockets
        self.worker = int(worker)
        self.peers: Optional[Peers] = None
        self.refresh_every = int(refresh_every)
        self._servers: List[asyncio.AbstractServer] = []
        self._refreshers: Dict[str, ModelRefresher] = {}

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        await self.service.start()
        # glibc malloc serves blocks of 128 KiB or more with mmap and gives
        # them back with munmap until freeing a larger mapped block raises
        # that threshold.  Each request allocates such blocks and drops them
        # (the stream buffer, the body bytes, the depth guard's arrays), so
        # without a raise every request maps fresh pages and pays ~100 minor
        # faults for them, 10-15 % of throughput.  Freeing one untouched 8 MiB
        # block raises it to 8 MiB, and the heap's trim threshold to 16 MiB,
        # once; other allocators are unaffected.
        np.empty(8 * 1024 * 1024, dtype=np.uint8)
        sockets = self.sockets if self.sockets is not None else bind(self.host, self.port)
        # asyncio's selector loop accepts up to ``backlog`` connections each
        # time a listening socket turns readable (``_accept_connection`` in
        # ``asyncio/selector_events.py`` loops ``backlog`` times).  Every
        # worker sharing the sockets wakes on each new connection, so one
        # could take all that are pending while another idles; accepting one
        # per wakeup leaves the rest to whichever worker is free (+10 %
        # columns/s with two workers on a 2-CPU Xeon host).  asyncio also
        # passes ``backlog`` to ``listen()``, so the kernel queue is deepened
        # again right after; worker 0 reports ready only once every worker
        # has done so (:mod:`repro.serve.supervisor`).  A lone server keeps
        # the default.
        backlog = 1 if self.peers is not None else LISTEN_BACKLOG
        for sock in sockets:
            self._servers.append(await asyncio.start_server(
                self._handle, sock=sock, limit=MAX_LINE_BYTES, backlog=backlog
            ))
            sock.listen(LISTEN_BACKLOG)
        # port=0 binds an ephemeral port; report the real one.
        self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        servers, self._servers = self._servers, []
        for server in servers:
            server.close()
            await server.wait_closed()
        await self.service.stop()

    # -- one connection ------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            method, path, body = await self._read_request(reader)
        except _HttpError as exc:
            status, payload = exc.status, {"error": str(exc)}
        except Exception as exc:  # defensive: a handler bug must not kill the loop
            status, payload = 500, {"error": str(exc), "type": type(exc).__name__}
        else:
            status, payload = await self.respond(method, path, body)
        try:
            body_bytes = orjson.dumps(payload)
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body_bytes)}\r\n"
                f"X-Repro-Worker: {self.worker}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode() + body_bytes)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    @staticmethod
    async def _read_line(reader) -> str:
        try:
            line = await reader.readline()
        except ValueError:  # StreamReader.readline past the stream limit
            raise _HttpError(
                400, f"request or header line longer than {MAX_LINE_BYTES} bytes"
            ) from None
        return line.decode("latin-1")

    @classmethod
    async def _read_request(cls, reader) -> Tuple[str, str, bytes]:
        request_line = (await cls._read_line(reader)).strip()
        if not request_line:
            raise _HttpError(400, "empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        method, target, _version = parts
        headers = {}
        while True:
            line = await cls._read_line(reader)
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise _HttpError(400, f"Content-Length is not an integer: {raw_length!r}") from None
        if length < 0:
            raise _HttpError(400, f"Content-Length is negative: {length}")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body of {length} bytes exceeds the limit")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target.split("?", 1)[0], body

    # -- routing -------------------------------------------------------------
    async def respond(self, method: str, path: str, body: bytes) -> Tuple[int, dict]:
        """The status and JSON payload answering one parsed request."""
        try:
            if self.peers is not None and self.peers.forwards(path):
                return await self.peers.forward(method, path, body)
            return await self._route(method, path, body)
        except Exception as exc:  # defensive: a handler bug must not kill the loop
            return 500, {"error": str(exc), "type": type(exc).__name__}

    async def _route(self, method: str, path: str, body: bytes) -> Tuple[int, dict]:
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "healthz is GET-only"}
            started, alive = (self.peers.started, self.peers.alive) if self.peers else (1, 1)
            return 200, {
                "status": "ok",
                "worker": self.worker,
                "workers": {"started": started, "alive": alive},
                "models": self.store.describe(),
            }
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "stats is GET-only"}
            stats = self.service.stats
            if self.peers is not None:
                stats = ServeStats.merge([stats, *await self.peers.stats()])
            snapshot = stats.snapshot()
            snapshot["models"] = self.store.describe()
            return 200, snapshot

        segments = [s for s in path.split("/") if s]
        if len(segments) == 4 and segments[:2] == ["v1", "models"]:
            name, action = segments[2], segments[3]
            if method != "POST":
                return 405, {"error": f"{action} is POST-only"}
            try:
                if action == "project":
                    return await self._project(name, body)
                if action == "ingest":
                    return await self._ingest(name, body)
                if action == "reload":
                    return await self._reload(name)
            except ProjectionRequestError as exc:
                self.service.stats.validation_errors += 1
                return 400, {"error": str(exc), "type": "ProjectionRequestError"}
            except ModelNotFoundError as exc:
                self.service.stats.model_errors += 1
                return 404, {"error": str(exc), "type": "ModelNotFoundError"}
            except ServerOverloadedError as exc:
                return 503, {"error": str(exc), "type": "ServerOverloadedError"}
            except DeadlineExceededError as exc:
                return 504, {"error": str(exc), "type": "DeadlineExceededError"}
            except ModelLoadError as exc:
                return 500, {"error": str(exc), "type": "ModelLoadError"}
        return 404, {"error": f"no route for {method} {path}"}

    @staticmethod
    def _parse_json(body: bytes) -> dict:
        if _nests_deeper_than(body, MAX_JSON_DEPTH):
            raise ProjectionRequestError(
                f"request body nests arrays/objects deeper than {MAX_JSON_DEPTH} levels"
            )
        try:
            payload = orjson.loads(body or b"{}")
        except orjson.JSONDecodeError as exc:  # invalid UTF-8 and NaN literals too
            raise ProjectionRequestError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ProjectionRequestError(
                f"request body must be a JSON object, got {type(payload).__name__}"
            )
        return payload

    @staticmethod
    def _extract_columns(payload: dict, body: bytes) -> np.ndarray:
        """The request's columns as float64: ``(m,)`` for ``"column"``, ``m × c``
        for ``"columns"``.

        ``body`` is the raw request the payload was decoded from: a body with
        no ``r`` and no ``a`` byte cannot hold ``true`` or ``false``, which
        struct packing would take for 1 and 0.
        """
        if ("column" in payload) == ("columns" in payload):
            raise ProjectionRequestError(
                "request must carry exactly one of 'column' (one column) or "
                "'columns' (a list of columns)"
            )
        may_hold_booleans = b"r" in body or b"a" in body
        if "column" in payload:
            return _decode_columns([payload["column"]], "column", may_hold_booleans)[:, 0]
        columns = payload["columns"]
        if not isinstance(columns, list) or not columns:
            raise ProjectionRequestError("'columns' must be a non-empty list of columns")
        return _decode_columns(columns, "columns", may_hold_booleans)

    async def _project(self, name: str, body: bytes) -> Tuple[int, dict]:
        payload = self._parse_json(body)
        columns = self._extract_columns(payload, body)
        timeout = payload.get("timeout")
        if timeout is not None and (not isinstance(timeout, (int, float)) or timeout <= 0):
            raise ProjectionRequestError(
                f"'timeout' must be a positive number of seconds, got {timeout!r}"
            )
        response = await self.service.submit(name, columns, timeout=timeout)
        return 200, {
            "model": response.model,
            "version": response.version,
            "h": response.H.T.tolist(),
            "residuals": response.residuals.tolist(),
            "batch_columns": response.batch_columns,
        }

    async def _ingest(self, name: str, body: bytes) -> Tuple[int, dict]:
        payload = self._parse_json(body)
        if "column" not in payload:
            raise ProjectionRequestError("ingest requires a single 'column'")
        column = self._extract_columns(payload, body)
        refresher = self._refreshers.get(name)
        if refresher is None:
            self.store.get(name)  # 404 before building a refresher
            refresher = ModelRefresher(
                self.store,
                name,
                refresh_every=self.refresh_every,
            )
            self._refreshers[name] = refresher
        before = self.store.get(name)
        residual = refresher.ingest(column)
        entry = self.store.get(name)
        # Read before the publication's await: other ingests run meanwhile.
        reply = {
            "model": name,
            "columns_seen": refresher.columns_seen,
            "serving_version": entry.version,
            "foreground_norm": float(np.linalg.norm(residual)),
        }
        if entry is not before and self.peers is not None:
            await self.peers.publish(entry)
        return 200, reply

    async def _reload(self, name: str) -> Tuple[int, dict]:
        entry = self.store.reload(name)
        if self.peers is not None:
            await self.peers.publish(entry)
        return 200, {"model": name, "version": entry.version, **entry.metadata}


def bind(host: str, port: int) -> List[socket.socket]:
    """Listening TCP sockets for ``host:port``, one per address it resolves to.

    ``localhost`` may resolve to both 127.0.0.1 and ::1, and ``""`` means
    every interface, as in ``asyncio.start_server``.  With ``port`` 0 every
    socket takes the port the first one drew.  Each socket listens with
    :data:`LISTEN_BACKLOG` before this returns.  Raises :class:`OSError`
    when ``host`` does not resolve or an address cannot be bound.
    """
    infos = socket.getaddrinfo(
        host or None, port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
    )
    sockets: List[socket.socket] = []
    try:
        for family, kind, proto, _, address in dict.fromkeys(infos):
            if sockets and port == 0:
                address = (address[0], sockets[0].getsockname()[1], *address[2:])
            sock = socket.socket(family, kind, proto)
            sockets.append(sock)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if family == socket.AF_INET6:
                sock.setsockopt(socket.IPPROTO_IPV6, socket.IPV6_V6ONLY, 1)
            sock.bind(address)
            sock.listen(LISTEN_BACKLOG)
    except BaseException:
        for sock in sockets:
            sock.close()
        raise
    return sockets


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(message)


_JSON_STRING = re.compile(rb'"[^"]*"')
_NOT_BRACKETS = bytes(b for b in range(256) if b not in b"[]{}")


def _nests_deeper_than(body: bytes, limit: int) -> bool:
    """Whether the JSON document ``body`` nests arrays/objects past ``limit``.

    orjson recurses once per level on the calling thread's stack and
    overflows it (a segfault, not an exception) near 150 000 levels on an
    8 MiB stack, so deep bodies are refused before decoding.  The answer is
    exact on every prefix a JSON parser accepts, which is all it reads.
    """
    # '[' | 32 == '{' and ']' | 32 == '}': one comparison finds both kinds.
    if np.count_nonzero((np.frombuffer(body, np.uint8) | 32) == ord("{")) <= limit:
        return False  # nesting never exceeds the number of openers
    # Drop escaped backslashes, then escaped quotes, then strings: the
    # brackets left are the document's structure.
    unescaped = body.replace(b"\\\\", b"").replace(b'\\"', b"")
    brackets = _JSON_STRING.sub(b"", unescaped).translate(None, _NOT_BRACKETS)
    opens = (np.frombuffer(brackets, np.uint8) | 32) == ord("{")
    depth, chunk = 0, 1 << 16
    for start in range(0, opens.size, chunk):
        levels = depth + np.cumsum(2 * opens[start:start + chunk].astype(np.int64) - 1)
        if levels.max() > limit:
            return True
        depth = int(levels[-1])
    return False


_JSON_TYPES = {int: "number", float: "number", str: "string", type(None): "null",
               bool: "boolean", dict: "object", list: "array"}


def _decode_columns(columns: list, key: str, may_hold_booleans: bool) -> np.ndarray:
    """A JSON list of columns (each a list of m numbers) → an m × c float64 array.

    Each column is packed by one ``struct`` call, which converts a JSON
    number exactly as ``float()`` does and rejects strings, ``null``,
    objects and arrays; booleans it would pack, so they are looked for only
    when ``may_hold_booleans``.  Any other entry is named in a 400 by its
    column, row and JSON type.
    """
    for j, column in enumerate(columns):
        if type(column) is not list:
            raise ProjectionRequestError(
                f"'{key}' column {j} is a JSON {_json_type(column)}, not a list of numbers"
            )
    m = len(columns[0])
    for j, column in enumerate(columns):
        if len(column) != m:
            raise ProjectionRequestError(
                f"'{key}' entries must be equal-length columns: column 0 has "
                f"{m} entries, column {j} has {len(column)}"
            )
    pack = struct.Struct(f"{m}d").pack
    try:
        raw = b"".join([pack(*column) for column in columns])
    except struct.error:
        raw = None
    if raw is None or may_hold_booleans:
        _reject_non_numbers(columns, key)
    return np.frombuffer(raw, dtype=np.float64).reshape(len(columns), m).T


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _reject_non_numbers(columns: list, key: str) -> None:
    """Raise for the first entry that is not a JSON number.

    orjson decodes a JSON number to an ``int`` (within 64 bits) or a
    ``float``, so every other type is some other JSON value.
    """
    for j, column in enumerate(columns):
        for i, value in enumerate(column):
            if type(value) not in (int, float):
                raise ProjectionRequestError(
                    f"'{key}' column {j}, row {i} is a JSON {_json_type(value)}, "
                    "not a number"
                )


async def run_self_test(
    server: ProjectionServer, *, n_requests: int = 8, seed: int = 0
) -> dict:
    """Fire concurrent stdlib-client projections at a running server, then
    drive its write path.

    Used by ``repro serve --self-test`` (the CI smoke): picks the first
    registered model, sends ``n_requests`` concurrent single-column POSTs
    through ``urllib`` worker threads and asserts every response is a 200
    with a finite residual.  Then it ingests ``server.refresh_every``
    columns, so the refresher publishes a new model version, reloads the
    model from its file, and asserts that the serving version moved each
    time and that a projection is answered from the reloaded version (every
    worker installed it).  Returns a summary including the versions and the
    server's own ``/stats`` snapshot.
    """
    import urllib.request

    name = server.store.names()[0]
    entry = server.store.get(name)
    rng = np.random.default_rng(seed)
    columns = np.abs(rng.standard_normal((n_requests, entry.m)))
    base = f"http://{server.host}:{server.port}"

    def call(path: str, data: Optional[bytes] = None) -> Tuple[int, dict]:
        request = urllib.request.Request(
            base + path, data=data,
            headers={"Content-Type": "application/json"} if data else {},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode())

    loop = asyncio.get_running_loop()
    status, health = await loop.run_in_executor(None, call, "/healthz")
    if status != 200 or health.get("status") != "ok":
        raise ServeError(f"/healthz failed: {status} {health}")

    tasks = [
        loop.run_in_executor(
            None, call, f"/v1/models/{name}/project",
            json.dumps({"column": column.tolist()}).encode(),
        )
        for column in columns
    ]
    results = await asyncio.gather(*tasks)
    for status, payload in results:
        if status != 200:
            raise ServeError(f"projection returned {status}: {payload}")
        residuals = payload.get("residuals", [])
        if not residuals or not all(np.isfinite(residuals)):
            raise ServeError(f"projection residuals not finite: {payload}")

    versions = [entry.version]
    for column in np.abs(rng.standard_normal((server.refresh_every, entry.m))):
        _, ingested = await loop.run_in_executor(
            None, call, f"/v1/models/{name}/ingest",
            json.dumps({"column": column.tolist()}).encode(),
        )
    versions.append(ingested["serving_version"])
    _, reloaded = await loop.run_in_executor(None, call, f"/v1/models/{name}/reload", b"")
    versions.append(reloaded["version"])
    _, projected = await loop.run_in_executor(
        None, call, f"/v1/models/{name}/project",
        json.dumps({"column": columns[0].tolist()}).encode(),
    )
    if not versions[0] < versions[1] < versions[2] == projected["version"]:
        raise ServeError(
            f"the serving version did not move: {versions[0]} deployed, "
            f"{versions[1]} after {server.refresh_every} ingests, {versions[2]} "
            f"after the reload, {projected['version']} served after it"
        )

    status, stats = await loop.run_in_executor(None, call, "/stats")
    if status != 200:
        raise ServeError(f"/stats failed: {status}")
    return {
        "model": name,
        "requests": n_requests,
        "responses": [payload for _, payload in results],
        "versions": versions,
        "stats": stats,
    }
