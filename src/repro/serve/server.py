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
ModelStore` into both layers; see :func:`repro.cli.main`.
"""

from __future__ import annotations

import asyncio
import json
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import orjson

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

__all__ = [
    "MAX_BATCH_COLUMNS",
    "ProjectionResponse",
    "ProjectionService",
    "ProjectionServer",
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
    done_event: Optional[asyncio.Event] = field(default=None, repr=False)


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
        BPP kernel the batched calls route through (``None`` = registry
        default ``batched``; the CLI defaults to ``auto``).
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
        self.store = store
        self.max_batch_columns = int(max_batch_columns)
        self.queue_limit = int(queue_limit)
        self.default_deadline = float(default_deadline)
        self.kernel = kernel
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
    ``orjson``.
    """

    def __init__(
        self,
        service: ProjectionService,
        host: str = "127.0.0.1",
        port: int = 8571,
        *,
        refresh_window: int = 64,
        refresh_every: int = 16,
    ):
        self.service = service
        self.store = service.store
        self.host = host
        self.port = port
        self.refresh_window = int(refresh_window)
        self.refresh_every = int(refresh_every)
        self._server: Optional[asyncio.AbstractServer] = None
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
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_LINE_BYTES
        )
        # port=0 binds an ephemeral port; report the real one.
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # -- one connection ------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HttpError as exc:
                status, payload = exc.status, {"error": str(exc)}
            else:
                status, payload = await self._route(method, path, body)
        except Exception as exc:  # defensive: a handler bug must not kill the loop
            status, payload = 500, {"error": str(exc), "type": type(exc).__name__}
        try:
            body_bytes = orjson.dumps(payload)
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body_bytes)}\r\n"
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
    async def _route(self, method: str, path: str, body: bytes) -> Tuple[int, dict]:
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "healthz is GET-only"}
            return 200, {"status": "ok", "models": self.store.describe()}
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "stats is GET-only"}
            snapshot = self.service.stats.snapshot()
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
    def _extract_columns(payload: dict):
        if ("column" in payload) == ("columns" in payload):
            raise ProjectionRequestError(
                "request must carry exactly one of 'column' (one column) or "
                "'columns' (a list of columns)"
            )
        if "column" in payload:
            return payload["column"], True
        columns = payload["columns"]
        if not isinstance(columns, list) or not columns:
            raise ProjectionRequestError("'columns' must be a non-empty list of columns")
        return _transpose_columns(columns), False

    async def _project(self, name: str, body: bytes) -> Tuple[int, dict]:
        payload = self._parse_json(body)
        columns, _single = self._extract_columns(payload)
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
        refresher = self._refreshers.get(name)
        if refresher is None:
            self.store.get(name)  # 404 before building a refresher
            refresher = ModelRefresher(
                self.store,
                name,
                window=self.refresh_window,
                refresh_every=self.refresh_every,
            )
            self._refreshers[name] = refresher
        residual = refresher.ingest(payload["column"])
        entry = self.store.get(name)
        return 200, {
            "model": name,
            "columns_seen": refresher.columns_seen,
            "serving_version": entry.version,
            "foreground_norm": float(np.linalg.norm(residual)),
        }

    async def _reload(self, name: str) -> Tuple[int, dict]:
        entry = self.store.reload(name)
        return 200, {"model": name, "version": entry.version, **entry.metadata}


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


def _transpose_columns(columns: list) -> np.ndarray:
    """A JSON list of columns (each a list of m floats) → an m × c array."""
    try:
        arr = np.asarray(columns, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ProjectionRequestError(
            f"'columns' entries must all be equal-length numeric lists ({exc})"
        ) from None
    if arr.ndim != 2:
        raise ProjectionRequestError(
            f"'columns' must be a list of equal-length columns, got a "
            f"{arr.ndim}-D payload"
        )
    return arr.T


async def run_self_test(
    server: ProjectionServer, *, n_requests: int = 8, seed: int = 0
) -> dict:
    """Fire concurrent stdlib-client projections at a running server.

    Used by ``repro serve --self-test`` (the CI smoke): picks the first
    registered model, sends ``n_requests`` concurrent single-column POSTs
    through ``urllib`` worker threads, asserts every response is a 200 with a
    finite residual, and returns a summary including the server's own
    ``/stats`` snapshot.
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
    status, stats = await loop.run_in_executor(None, call, "/stats")
    if status != 200:
        raise ServeError(f"/stats failed: {status}")
    return {
        "model": name,
        "requests": n_requests,
        "responses": [payload for _, payload in results],
        "stats": stats,
    }
