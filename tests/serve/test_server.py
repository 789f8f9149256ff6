"""End-to-end serving tests: batched byte identity, deadlines, shedding.

No pytest-asyncio in the environment: each test drives its own event loop
through ``asyncio.run``.  The service solves on the event loop itself, so a
batch is held by gating the batcher on an ``asyncio.Event`` awaited before
the solve (the ``gated_batcher`` fixture): the loop stays free to admit,
expire, shed and answer ``/healthz`` while the test decides when the solve
runs, and queue timeouts, load shedding and continuous batching are
exercised deterministically.  Coalescing is otherwise only asserted for
requests queued before the worker wakes (all submits of one ``gather``).
"""

import asyncio
import json
import socket
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import orjson
import pytest

import repro.serve.server as server_mod
from repro.core.api import fit
from repro.core.config import NMFConfig
from repro.core.result import NMFResult
from repro.data.lowrank import planted_lowrank
from repro.nls import available_kernels
from repro.serve import (
    DeadlineExceededError,
    ModelNotFoundError,
    ModelRefresher,
    ModelStore,
    ProjectionRequestError,
    ProjectionServer,
    ProjectionService,
    ServeError,
    ServerOverloadedError,
    ServeStats,
    project,
)
from repro.serve.server import MAX_BATCH_COLUMNS, MAX_LINE_BYTES, run_self_test
from repro.util.errors import SolverError

M, K = 48, 3
RNG = np.random.default_rng(11)


@pytest.fixture()
def gated_batcher(monkeypatch):
    """Each batch held on an ``asyncio.Event``: records its request count.

    The batcher awaits the gate after taking a batch and before solving it,
    so whatever the test submits meanwhile is queued behind that batch.
    """
    gate = asyncio.Event()
    calls = []
    real = ProjectionService._serve_batch

    async def gated(self, batch, loop):
        calls.append(len(batch))
        await asyncio.wait_for(gate.wait(), timeout=30)
        await real(self, batch, loop)

    monkeypatch.setattr(ProjectionService, "_serve_batch", gated)
    yield gate, calls
    gate.set()


async def _until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.001)


def _store(name="m", m=M, k=K):
    store = ModelStore()
    store.swap(name, NMFResult(
        W=np.abs(RNG.standard_normal((m, k))) + 0.01,
        H=np.abs(RNG.standard_normal((k, 6))),
        config=NMFConfig(k=k, seed=0),
        iterations=1,
    ))
    return store


class TestServiceLifecycle:
    def test_submit_before_start_errors(self):
        service = ProjectionService(_store())

        async def run():
            with pytest.raises(ServeError, match="not started"):
                await service.submit("m", np.ones(M))

        asyncio.run(run())

    def test_bad_construction_rejected(self):
        store = _store()
        with pytest.raises(ValueError):
            ProjectionService(store, max_batch_columns=0)
        with pytest.raises(ValueError):
            ProjectionService(store, queue_limit=0)
        # Resolved up front: a typo must not start a service whose every
        # request then fails (an unmapped 500 over HTTP).
        with pytest.raises(SolverError, match=r"unknown NLS kernel 'typo'"):
            ProjectionService(store, kernel="typo")
        assert ProjectionService(store, kernel="auto").kernel == "batched"

    @pytest.mark.parametrize("kernel", available_kernels() + ["auto"])
    def test_every_valid_kernel_name_serves_the_scalar_bytes(self, kernel):
        # The names the CLI's --kernel admits: each starts a service whose
        # co-batched responses equal the solo scalar projection.
        store = _store()
        entry = store.get("m")
        X = np.abs(RNG.standard_normal((M, 4)))

        async def run():
            service = ProjectionService(store, kernel=kernel)
            await service.start()
            try:
                return await asyncio.gather(*[
                    service.submit("m", X[:, i]) for i in range(4)
                ])
            finally:
                await service.stop()

        for i, response in enumerate(asyncio.run(run())):
            alone = project(entry.W, X[:, [i]], kernel="scalar", gram=entry.gram)
            assert response.H.tobytes() == alone.tobytes()

    def test_column_budget_default_is_the_module_constant(self):
        assert MAX_BATCH_COLUMNS == 256
        assert ProjectionService(_store()).max_batch_columns == MAX_BATCH_COLUMNS


class TestMicroBatchedByteIdentity:
    """The acceptance contract: co-batching is invisible, bit for bit."""

    def test_e2e_store_load_concurrent_clients(self, tmp_path):
        # Full satellite path: checkpointed artifact on disk -> store load ->
        # concurrent asyncio clients -> ONE coalesced kernel call -> responses
        # byte-identical to each column projected alone with the scalar kernel.
        result = fit(planted_lowrank(M, 32, K, seed=0, noise_std=0.02), K,
                     max_iters=3, seed=1)
        path = result.save(tmp_path / "model.npz")
        store = ModelStore()
        store.load(path, name="m")
        entry = store.get("m")
        X = np.abs(RNG.standard_normal((M, 10)))

        async def run():
            service = ProjectionService(store, kernel="batched")
            await service.start()
            try:
                responses = await asyncio.gather(*[
                    service.submit("m", X[:, i]) for i in range(10)
                ])
            finally:
                await service.stop()
            return responses

        responses = asyncio.run(run())
        # genuinely micro-batched: every request rode a multi-column batch
        assert all(r.batch_columns == 10 for r in responses)
        for i, response in enumerate(responses):
            alone = project(entry.W, X[:, [i]], kernel="scalar",
                            gram=entry.gram)
            assert response.H.tobytes() == alone.tobytes()
            assert response.version == 1
            assert np.isfinite(response.residuals).all()

    def test_multi_column_requests_in_mixed_batch(self):
        store = _store()
        entry = store.get("m")
        blocks = [np.abs(RNG.standard_normal((M, c))) for c in (2, 1, 3)]

        async def run():
            service = ProjectionService(store, kernel="batched")
            await service.start()
            try:
                return await asyncio.gather(*[
                    service.submit("m", b) for b in blocks
                ])
            finally:
                await service.stop()

        responses = asyncio.run(run())
        assert all(r.batch_columns == 6 for r in responses)
        for block, response in zip(blocks, responses):
            alone = project(entry.W, block, kernel="scalar", gram=entry.gram)
            assert response.H.tobytes() == alone.tobytes()

    def test_admission_validation_fails_bad_request_alone(self):
        # One malformed request must 400 by itself; its co-submitted
        # neighbour is still served.
        store = _store()
        good = np.abs(RNG.standard_normal((M, 4)))
        bad = np.full(M, np.nan)

        async def run():
            service = ProjectionService(store)
            await service.start()
            try:
                results = await asyncio.gather(
                    service.submit("m", good),
                    service.submit("m", bad),
                    service.submit("m", np.ones(M + 5)),
                    return_exceptions=True,
                )
            finally:
                await service.stop()
            return results

        ok, nan_err, shape_err = asyncio.run(run())
        assert ok.H.shape == (K, 4)
        assert isinstance(nan_err, ProjectionRequestError)
        assert isinstance(shape_err, ProjectionRequestError)

    def test_unknown_model_rejected_at_admission(self):
        async def run():
            service = ProjectionService(_store())
            await service.start()
            try:
                with pytest.raises(ModelNotFoundError):
                    await service.submit("ghost", np.ones(M))
            finally:
                await service.stop()

        asyncio.run(run())


class TestHotSwap:
    def test_swap_under_traffic_bumps_version_without_dropping(self):
        store = _store()

        async def run():
            service = ProjectionService(store)
            await service.start()
            try:
                first = await service.submit("m", np.ones(M))
                store.swap("m", NMFResult(
                    W=np.abs(RNG.standard_normal((M, K))) + 0.01,
                    H=np.abs(RNG.standard_normal((K, 4))),
                    config=NMFConfig(k=K, seed=9),
                    iterations=1,
                ))
                second = await service.submit("m", np.ones(M))
            finally:
                await service.stop()
            return first, second

        first, second = asyncio.run(run())
        assert first.version == 1
        assert second.version == 2
        assert first.H.tobytes() != second.H.tobytes()


class TestContinuousBatching:
    """A batch is what is queued when the solver frees up, within the budget."""

    def _run_behind_a_solve(self, gated_batcher, n_queued, hold=0.0, **service_kwargs):
        """Solve one request, queue ``n_queued`` behind it, then open the gate
        ``hold`` seconds after the last of them is admitted."""
        gate, calls = gated_batcher
        store = _store()
        X = np.abs(RNG.standard_normal((M, n_queued + 1)))

        async def run():
            service = ProjectionService(store, kernel="batched", **service_kwargs)
            await service.start()
            try:
                head = asyncio.create_task(service.submit("m", X[:, 0]))
                await _until(lambda: calls)  # head is in the kernel
                queued = [asyncio.create_task(service.submit("m", X[:, i]))
                          for i in range(1, n_queued + 1)]
                await _until(lambda: service.stats.requests_total == n_queued + 1)
                await asyncio.sleep(hold)
                gate.set()
                return await asyncio.gather(head, *queued), service.stats.snapshot()
            finally:
                gate.set()
                await service.stop()

        responses, snapshot = asyncio.run(run())
        return store.get("m"), X, responses, calls, snapshot

    def test_requests_landing_during_a_solve_form_the_next_batch(self, gated_batcher):
        entry, X, responses, calls, snapshot = self._run_behind_a_solve(gated_batcher, 4)
        assert calls == [1, 4]
        assert [r.batch_columns for r in responses] == [1, 4, 4, 4, 4]
        for i, response in enumerate(responses):
            alone = project(entry.W, X[:, [i]], kernel="scalar", gram=entry.gram)
            assert response.H.tobytes() == alone.tobytes()
        assert snapshot["batch_columns_histogram"] == {"1": 1, "4": 1}

    def test_column_budget_splits_what_is_queued(self, gated_batcher):
        _, _, responses, calls, _ = self._run_behind_a_solve(
            gated_batcher, 5, max_batch_columns=3)
        assert calls == [1, 3, 2]
        assert [r.batch_columns for r in responses] == [1, 3, 3, 3, 2, 2]

    def test_stage_clock_round_trip(self, gated_batcher, monkeypatch):
        # Two requests queue behind a batch held for 50 ms, and every solve
        # takes 50 ms: all three queue waits span the hold, every solve its
        # own 50 ms.
        real = server_mod.project_blocks

        def slow(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(server_mod, "project_blocks", slow)
        _, _, _, _, snapshot = self._run_behind_a_solve(gated_batcher, 2, hold=0.05)
        wait, solve = snapshot["queue_wait_seconds"], snapshot["solve_seconds"]
        assert 0.05 <= wait["p50"] <= wait["p99"]
        assert 0.05 <= solve["p50"] <= solve["p99"]


class TestSlowKernel:
    """Deadline expiry and queue shedding behind a held batch."""

    def test_queued_past_deadline_gets_504(self, gated_batcher):
        gate, calls = gated_batcher
        store = _store()

        async def run():
            # one request per batch: later submissions wait behind the head
            service = ProjectionService(store, max_batch_columns=1)
            await service.start()
            try:
                head = asyncio.create_task(service.submit("m", np.ones(M)))
                await _until(lambda: calls)  # head is now held
                queued = [
                    asyncio.create_task(
                        service.submit("m", np.ones(M), timeout=0.05))
                    for _ in range(2)
                ]
                await asyncio.sleep(0.1)     # both expire in the queue
                gate.set()
                results = await asyncio.gather(head, *queued,
                                               return_exceptions=True)
                stats = service.stats.snapshot()
            finally:
                await service.stop()
            return results, stats

        (head, late1, late2), stats = asyncio.run(run())
        assert head.H.shape == (K, 1)
        assert isinstance(late1, DeadlineExceededError)
        assert isinstance(late2, DeadlineExceededError)
        assert stats["deadline_total"] == 2

    def test_full_queue_sheds_with_503(self, gated_batcher):
        gate, calls = gated_batcher
        store = _store()

        async def run():
            service = ProjectionService(store, max_batch_columns=1, queue_limit=1,
                                        default_deadline=5.0)
            await service.start()
            try:
                head = asyncio.create_task(service.submit("m", np.ones(M)))
                await _until(lambda: calls)  # head dequeued and held
                second = asyncio.create_task(service.submit("m", np.ones(M)))
                await asyncio.sleep(0)     # second now occupies the queue
                with pytest.raises(ServerOverloadedError, match="full"):
                    await service.submit("m", np.ones(M))
                gate.set()
                results = await asyncio.gather(head, second)
                stats = service.stats.snapshot()
            finally:
                await service.stop()
            return results, stats

        (head, second), stats = asyncio.run(run())
        assert head.H.shape == (K, 1)
        assert second.H.shape == (K, 1)  # queued, not shed: served after head
        assert stats["shed_total"] == 1

    def test_kernel_failure_fails_batch_but_not_service(self, monkeypatch):
        store = _store()

        calls = {"n": 0}
        real = server_mod.project_blocks

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("kernel exploded")
            return real(*args, **kwargs)

        monkeypatch.setattr(server_mod, "project_blocks", flaky)

        async def run():
            service = ProjectionService(store)
            await service.start()
            try:
                with pytest.raises(RuntimeError, match="exploded"):
                    await service.submit("m", np.ones(M))
                recovered = await service.submit("m", np.ones(M))
            finally:
                await service.stop()
            return recovered

        assert asyncio.run(run()).H.shape == (K, 1)


def _http(base, path, payload=None, method=None):
    """Blocking stdlib HTTP helper; returns (status, parsed json body)."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def _get_raw_body(base, path):
    """GET ``path`` and return the undecoded response body."""
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return response.read()


def _raw_http(base, request: bytes):
    """Send raw request bytes, read to EOF; returns (status, parsed json body)."""
    port = int(base.rsplit(":", 1)[1])
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(1 << 16):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def _raw_post(path: str, body: bytes) -> bytes:
    return (f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


class TestBind:
    def test_localhost_listens_on_every_address_it_resolves_to_on_one_port(self):
        resolved = {
            info[4][:2]
            for info in socket.getaddrinfo(
                "localhost", 0, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
            )
        }
        sockets = server_mod.bind("localhost", 0)
        try:
            bound = [sock.getsockname()[:2] for sock in sockets]
            assert {host for host, _ in bound} == {host for host, _ in resolved}
            assert len({port for _, port in bound}) == 1
            for host, port in bound:
                with socket.create_connection((host, port), timeout=5):
                    pass  # the kernel completes the handshake: it listens
        finally:
            for sock in sockets:
                sock.close()

    def test_an_address_of_no_local_interface_raises_oserror(self):
        with pytest.raises(OSError):
            server_mod.bind("192.0.2.1", 0)  # TEST-NET-1: never assigned here


class TestHttpServer:
    def _run(self, scenario, **service_kwargs):
        """Start a server on an ephemeral port, run ``scenario(base, ...)``."""
        store = _store()
        entry = store.get("m")

        async def main():
            service = ProjectionService(store, **service_kwargs)
            server = ProjectionServer(service, port=0, refresh_every=4)
            await server.start()
            loop = asyncio.get_running_loop()
            base = f"http://127.0.0.1:{server.port}"
            try:
                return await scenario(loop, base, store, entry)
            finally:
                await server.stop()

        return asyncio.run(main())

    def test_healthz_and_stats(self):
        # Before the first batch the mean batch size and every quantile are
        # NaN in Python; the wire carries them as null, which a strict
        # parser accepts (a bare NaN token is not JSON).
        async def scenario(loop, base, store, entry):
            return [await loop.run_in_executor(None, _get_raw_body, base, path)
                    for path in ("/healthz", "/stats")]

        health, stats = (orjson.loads(raw) for raw in self._run(scenario))
        assert health["status"] == "ok"
        assert health["models"][0]["name"] == "m"
        assert stats["requests_total"] == 0
        assert stats["mean_batch_columns"] is None
        for clock in ("latency_seconds", "queue_wait_seconds", "solve_seconds"):
            assert stats[clock] == {"p50": None, "p99": None}

    def test_healthz_answers_while_requests_are_queued(self, gated_batcher):
        gate, calls = gated_batcher
        stats = ServeStats()

        async def scenario(loop, base, store, entry):
            with ThreadPoolExecutor(max_workers=3) as clients:
                posts = [
                    loop.run_in_executor(
                        clients, _http, base, "/v1/models/m/project",
                        {"column": [1.0] * M},
                    )
                    for _ in range(3)
                ]
                try:
                    await _until(lambda: stats.requests_total == 3)
                    health = await loop.run_in_executor(None, _http, base, "/healthz")
                    answered = stats.responses_total
                finally:
                    gate.set()
                return health, answered, await asyncio.gather(*posts)

        (status, health), answered, posts = self._run(scenario, stats=stats)
        assert status == 200 and health["status"] == "ok"
        assert calls and answered == 0  # answered while every projection waited
        assert [s for s, _ in posts] == [200] * 3

    def test_concurrent_projections_match_solo_scalar(self, gated_batcher):
        # Five requests land while the first one's solve is held: they ride
        # one later batch, and every answer equals its column solved alone.
        gate, _ = gated_batcher
        stats = ServeStats()
        X = np.abs(RNG.standard_normal((M, 6)))

        async def scenario(loop, base, store, entry):
            with ThreadPoolExecutor(max_workers=6) as clients:
                calls = [
                    loop.run_in_executor(
                        clients, _http, base, "/v1/models/m/project",
                        {"column": X[:, i].tolist()},
                    )
                    for i in range(6)
                ]
                try:
                    await _until(lambda: stats.requests_total == 6)
                finally:
                    gate.set()
                return await asyncio.gather(*calls), entry

        results, entry = self._run(scenario, kernel="batched", stats=stats)
        assert all(status == 200 for status, _ in results)
        assert any(body["batch_columns"] > 1 for _, body in results)
        for i, (_, body) in enumerate(results):
            alone = project(entry.W, X[:, [i]], kernel="scalar", gram=entry.gram)
            assert body["h"] == alone.T.tolist()

    @pytest.mark.parametrize("request_bytes, message", [
        (b"POST /v1/models/m/project HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
         "Content-Length is not an integer: 'ten'"),
        (b"POST /v1/models/m/project HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
         "Content-Length is negative: -5"),
        (b"GET /" + b"a" * (MAX_LINE_BYTES + 10) + b" HTTP/1.1\r\n\r\n",
         f"request or header line longer than {MAX_LINE_BYTES} bytes"),
        (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (MAX_LINE_BYTES + 10) + b"\r\n\r\n",
         f"request or header line longer than {MAX_LINE_BYTES} bytes"),
    ], ids=["non-numeric-length", "negative-length", "long-request-line",
            "long-header-line"])
    def test_malformed_http_gets_named_400(self, request_bytes, message):
        async def scenario(loop, base, store, entry):
            return await loop.run_in_executor(None, _raw_http, base, request_bytes)

        status, body = self._run(scenario)
        assert status == 400
        assert body["error"] == message

    @pytest.mark.parametrize("body, message", [
        (b'{"column": "\xff"}', "not valid JSON"),
        (b"[1.0, 2.0]", "must be a JSON object, got list"),
        (b'{"column": [NaN, 1.0]}', "not valid JSON"),
        (b"[" * 100_000 + b"]" * 100_000, "deeper than 1024 levels"),
    ], ids=["invalid-utf8", "top-level-array", "nan-literal", "100k-deep"])
    def test_malformed_body_gets_named_400(self, body, message):
        async def scenario(loop, base, store, entry):
            return await loop.run_in_executor(
                None, _raw_http, base, _raw_post("/v1/models/m/project", body))

        status, payload = self._run(scenario)
        assert status == 400
        assert payload["type"] == "ProjectionRequestError"
        assert message in payload["error"]

    @pytest.mark.parametrize("payload, message", [
        ({"columns": [[1.0] * M, ["1.5"] + [1.0] * (M - 1)]},
         "'columns' column 1, row 0 is a JSON string, not a number"),
        ({"column": [1.0] * 5 + [None] + [1.0] * (M - 6)},
         "'column' column 0, row 5 is a JSON null, not a number"),
        ({"columns": [[1.0] * (M - 1) + [True]]},
         f"'columns' column 0, row {M - 1} is a JSON boolean, not a number"),
        ({"column": [{"x": 1}] + [1.0] * (M - 1)},
         "'column' column 0, row 0 is a JSON object, not a number"),
        ({"columns": [[1.0] * M, [[1.0]] * M]},
         "'columns' column 1, row 0 is a JSON array, not a number"),
        ({"columns": ["1.0"]}, "'columns' column 0 is a JSON string, not a list of numbers"),
        ({"column": 3.0}, "'column' column 0 is a JSON number, not a list of numbers"),
    ], ids=["string", "null", "boolean", "object", "array", "column-string", "column-number"])
    def test_non_number_entries_get_a_400_naming_them(self, payload, message):
        async def scenario(loop, base, store, entry):
            project_reply = await loop.run_in_executor(
                None, _http, base, "/v1/models/m/project", payload)
            ingest = {"column": payload.get("column", payload.get("columns"))}
            ingest_reply = await loop.run_in_executor(
                None, _http, base, "/v1/models/m/ingest", ingest)
            return project_reply, ingest_reply

        (status, body), (ingest_status, ingest_body) = self._run(scenario)
        assert status == 400 and body["error"] == message
        assert ingest_status == 400 and "not a" in ingest_body["error"]

    def test_http_response_values_equal_solo_projection(self):
        X = np.abs(RNG.standard_normal((M, 3)))

        async def scenario(loop, base, store, entry):
            status, body = await loop.run_in_executor(
                None, _http, base, "/v1/models/m/project",
                {"columns": [X[:, i].tolist() for i in range(3)]},
            )
            return status, body, entry

        status, body, entry = self._run(scenario, kernel="batched")
        assert status == 200
        alone = project(entry.W, X, kernel="scalar", gram=entry.gram)
        # JSON round-trips float64 exactly: values match the scalar solo
        # projection to the last bit.
        assert body["h"] == alone.T.tolist()
        assert body["version"] == 1
        assert len(body["residuals"]) == 3

    def test_malformed_requests_get_400(self):
        async def scenario(loop, base, store, entry):
            cases = [
                ("/v1/models/m/project", {"column": [1.0] * (M + 1)}),
                ("/v1/models/m/project", {"column": [1.0] * M,
                                          "columns": [[1.0] * M]}),
                ("/v1/models/m/project", {}),
                ("/v1/models/m/project", {"columns": []}),
                ("/v1/models/m/project", {"column": [1.0] * M,
                                          "timeout": -1}),
                ("/v1/models/m/project", {"columns": [[1.0], [1.0, 2.0]]}),
            ]
            out = []
            for path, payload in cases:
                out.append(await loop.run_in_executor(
                    None, _http, base, path, payload))
            raw = await loop.run_in_executor(
                None, _http, base, "/v1/models/m/project", "not json")
            out.append(raw)
            return out

        results = self._run(scenario)
        assert [status for status, _ in results] == [400] * 7
        assert "features" in results[0][1]["error"]

    def test_unknown_model_and_route_get_404(self):
        async def scenario(loop, base, store, entry):
            missing = await loop.run_in_executor(
                None, _http, base, "/v1/models/ghost/project",
                {"column": [1.0] * M})
            noroute = await loop.run_in_executor(
                None, _http, base, "/v1/nothing")
            return missing, noroute

        (m_status, m_body), (r_status, _) = self._run(scenario)
        assert m_status == 404
        assert m_body["type"] == "ModelNotFoundError"
        assert r_status == 404

    def test_wrong_method_gets_405(self):
        async def scenario(loop, base, store, entry):
            getting = await loop.run_in_executor(
                None, _http, base, "/v1/models/m/project", None, "GET")
            posting = await loop.run_in_executor(
                None, _http, base, "/healthz", {}, "POST")
            return getting, posting

        (g_status, _), (p_status, _) = self._run(scenario)
        assert g_status == 405 and p_status == 405

    def test_ingest_publishes_on_cadence(self):
        X = np.abs(RNG.standard_normal((M, 2)))

        async def scenario(loop, base, store, entry):
            statuses = []
            for _ in range(4):  # refresh_every=4 -> one published version
                column = np.abs(RNG.standard_normal(M))
                statuses.append(await loop.run_in_executor(
                    None, _http, base, "/v1/models/m/ingest",
                    {"column": column.tolist()}))
            projected = await loop.run_in_executor(
                None, _http, base, "/v1/models/m/project",
                {"columns": [X[:, 0].tolist(), X[:, 1].tolist()]})
            return statuses, projected, store.get("m")

        statuses, (status, body), refreshed = self._run(scenario)
        assert [s for s, _ in statuses] == [200] * 4
        assert statuses[-1][1]["columns_seen"] == 4
        assert refreshed.version == 2
        assert statuses[-1][1]["serving_version"] == 2
        # the next projection is served by the published version
        assert status == 200 and body["version"] == 2
        alone = project(refreshed.W, X, kernel="scalar", gram=refreshed.gram)
        assert body["h"] == alone.T.tolist()

    def test_reload_endpoint_on_in_memory_model_is_500(self):
        async def scenario(loop, base, store, entry):
            return await loop.run_in_executor(
                None, _http, base, "/v1/models/m/reload", {})

        status, body = self._run(scenario)
        assert status == 500
        assert body["type"] == "ModelLoadError"

    def test_run_self_test_round_trip(self, tmp_path):
        store = ModelStore()
        store.load(_store().get("m").result.save(tmp_path / "m.npz"))

        async def main():
            service = ProjectionService(store, kernel="batched")
            server = ProjectionServer(service, port=0, refresh_every=4)
            await server.start()
            try:
                return await run_self_test(server, n_requests=5)
            finally:
                await server.stop()

        summary = asyncio.run(main())
        assert summary["requests"] == 5
        # The write path: 4 ingests publish version 2, the reload reads the
        # file into version 3, and one more projection is served from it.
        assert summary["versions"] == [1, 2, 3]
        assert store.get("m").version == 3 and store.get("m").result.variant == ""
        assert summary["stats"]["responses_total"] == 6
        assert all(np.isfinite(r["residuals"]).all()
                   for r in summary["responses"])

    def test_run_self_test_refuses_a_model_that_stays_put(self, tmp_path, monkeypatch):
        """A write path that publishes nothing fails the self-test."""
        store = ModelStore()
        store.load(_store().get("m").result.save(tmp_path / "m.npz"))
        monkeypatch.setattr(ModelRefresher, "_publish", lambda self: None)

        async def main():
            server = ProjectionServer(ProjectionService(store), port=0, refresh_every=2)
            await server.start()
            try:
                return await run_self_test(server, n_requests=2)
            finally:
                await server.stop()

        with pytest.raises(ServeError, match="the serving version did not move"):
            asyncio.run(main())


@pytest.fixture(params=["admm", "pgrad"])
def deleted_solver_artifact(request, tmp_path):
    """A model saved while ``admm`` and ``pgrad`` were registered solvers."""
    result = NMFResult(
        W=np.abs(RNG.standard_normal((M, K))) + 0.01,
        H=np.abs(RNG.standard_normal((K, 6))),
        config=NMFConfig(k=K, seed=0, solver=request.param),
        iterations=1,
    )
    return result.save(tmp_path / "old.npz"), request.param


class TestArtifactOfADeletedSolver:
    def test_it_loads_with_its_solver_recorded(self, deleted_solver_artifact):
        path, solver = deleted_solver_artifact
        loaded = NMFResult.load(path)
        assert loaded.solver == solver and loaded.config.solver == solver

    def test_it_projects_with_bpp_and_its_ingest_names_the_registry(
        self, deleted_solver_artifact
    ):
        path, solver = deleted_solver_artifact
        store = ModelStore()
        entry = store.load(path, name="m")
        X = np.abs(RNG.standard_normal((M, 2)))
        columns = {"columns": [X[:, 0].tolist(), X[:, 1].tolist()]}
        column = {"column": np.abs(RNG.standard_normal(M)).tolist()}

        async def main():
            server = ProjectionServer(ProjectionService(store), port=0, refresh_every=4)
            await server.start()
            loop = asyncio.get_running_loop()
            base = f"http://127.0.0.1:{server.port}"
            try:
                calls = [("project", columns), ("ingest", column), ("ingest", column),
                         ("project", columns)]
                return [await loop.run_in_executor(
                    None, _http, base, f"/v1/models/m/{action}", payload)
                    for action, payload in calls]
            finally:
                await server.stop()

        projected, first, second, again = asyncio.run(main())
        # /project never used the fit's solver: it is BPP, byte for byte.
        alone = project(entry.W, X, kernel="scalar", gram=entry.gram)
        assert projected == again == (200, {**projected[1], "h": alone.T.tolist()})
        # The streaming refresh would run the saved solver, which is gone.
        message = f"unknown NLS solver '{solver}'; available: ['bpp', 'hals', 'mu']"
        for status, body in (first, second):
            assert status == 500
            assert body["type"] == "KeyError" and message in body["error"]
        assert store.get("m") is entry
