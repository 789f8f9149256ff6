"""One child interpreter's share of the serving workload.

The child saves a model, starts ``python -m repro serve`` as its own child,
and drives it in a closed loop: each of the connections sends its next
request only after the previous response has fully arrived.  The server
closes the connection after every response, so a request's latency runs from
``connect`` to the last byte.
"""

from __future__ import annotations

import json
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import hostref, workloads
from harness.ops import OpLog, peak_rss_mb
from harness.spans import SpanRecorder

HOST = "127.0.0.1"
MODEL = "model"


def _exchange(port: int, payload: bytes, rec: SpanRecorder) -> Tuple[float, bytes]:
    """Send one request; (latency in seconds, raw response)."""
    with rec.span("serve", "http_request"):
        start = time.perf_counter()
        with rec.span("serve", "connect"):
            sock = socket.create_connection((HOST, port), timeout=30.0)
        with sock:
            with rec.span("serve", "send"):
                sock.sendall(payload)
            with rec.span("serve", "wait_and_receive"):
                chunks = []
                while True:
                    chunk = sock.recv(1 << 16)
                    if not chunk:
                        break
                    chunks.append(chunk)
        latency = time.perf_counter() - start
    return latency, b"".join(chunks)


def _parse(raw: bytes) -> Tuple[int, dict]:
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1])
    return status, json.loads(body.decode())


def _get(port: int, path: str) -> Tuple[int, dict]:
    request = f"GET {path} HTTP/1.1\r\nHost: {HOST}\r\n\r\n".encode()
    _, raw = _exchange(port, request, SpanRecorder("", enabled=False))
    return _parse(raw)


def _post_bytes(body: bytes) -> bytes:
    head = (
        f"POST /v1/models/{MODEL}/project HTTP/1.1\r\nHost: {HOST}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


class Server:
    """The server child: started from the CLI, port read from its banner."""

    def __init__(self, model_path: Path, env: Dict[str, str]):
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(model_path), "--port", "0", "--kernel", "auto"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self.lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.port = self._await_banner()
        self.ready_s = self._await_health()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)

    def _await_banner(self, timeout: float = 60.0) -> int:
        deadline = time.perf_counter() + timeout
        seen = []
        while time.perf_counter() < deadline:
            try:
                line = self.lines.get(timeout=0.5)
            except queue.Empty:
                if self.proc.poll() is not None:
                    break
                continue
            seen.append(line)
            if "http://" in line:
                return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("server did not print its address:\n" + "".join(seen))

    def _await_health(self, timeout: float = 30.0) -> float:
        """Seconds from spawning the server to its first 200 from /healthz."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            try:
                status, _ = _get(self.port, "/healthz")
            except OSError:
                time.sleep(0.005)
                continue
            if status == 200:
                return time.perf_counter() - self.spawned
        self.stop()
        raise RuntimeError("server never answered /healthz with 200")

    def stop(self) -> Optional[int]:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5.0)
        self.proc.stdout.close()
        return self.proc.returncode


class ClosedLoop:
    """``connections`` client threads cycling through the pre-encoded request pool."""

    def __init__(self, port: int, payloads: List[bytes], connections: int, workload: str, tag: str):
        self.port = port
        self.payloads = payloads
        self.connections = connections
        self.workload = workload
        # One recorder per client thread: each becomes its own track in the trace.
        self.traced_recs = [
            SpanRecorder(workload, prefix=f"{tag}c{c}r", enabled=True) for c in range(connections)
        ]
        self.cursor = list(range(connections))  # connection c sends c, c+C, c+2C, ...

    def phase(self, min_requests: int, seconds: float, traced: bool = False) -> dict:
        """Run until every connection sent ``min_requests`` and ``seconds`` passed."""
        samples: List[List[tuple]] = [[] for _ in range(self.connections)]
        off = SpanRecorder(self.workload, enabled=False)
        start = time.perf_counter()

        def client(c: int) -> None:
            rec = self.traced_recs[c] if traced else off
            sent = 0
            while sent < min_requests or time.perf_counter() - start < seconds:
                index = self.cursor[c] % len(self.payloads)
                self.cursor[c] += self.connections
                try:
                    latency, raw = _exchange(self.port, self.payloads[index], rec)
                    samples[c].append((index, latency, raw, None))
                except OSError as exc:
                    samples[c].append((index, float("nan"), b"", repr(exc)))
                sent += 1

        threads = [threading.Thread(target=client, args=(c,)) for c in range(self.connections)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        return {"wall_s": wall, "samples": [s for per_conn in samples for s in per_conn]}

    def spans(self) -> List[dict]:
        return [s for rec in self.traced_recs for s in rec.spans]


def _check_response(raw: bytes, error: Optional[str], columns: int):
    """(problems, parsed payload or None) for one response."""
    import numpy as np

    if error is not None:
        return [f"transport error {error}"], None
    try:
        status, payload = _parse(raw)
    except (ValueError, IndexError) as exc:
        return [f"unparseable response: {exc}"], None
    if status != 200:
        return [f"status {status}: {payload}"], None
    h = np.asarray(payload.get("h", []), dtype=float)
    res = np.asarray(payload.get("residuals", []), dtype=float)
    problems = []
    if h.ndim != 2 or h.shape[0] != columns:
        problems.append(f"h has shape {h.shape}, expected {columns} columns")
    elif not np.isfinite(h).all() or (h < 0).any():
        problems.append("h has negative or non-finite entries")
    if res.shape != (columns,) or not np.isfinite(res).all():
        problems.append("residuals missing or non-finite")
    return problems, payload


def run(spec: dict, env: Dict[str, str]) -> dict:
    import numpy as np

    from repro.serve import project

    wl = workloads.get(spec["workload"])
    seed, smoke, traced = spec["seed"], spec["smoke"], spec["trace"]
    rec = SpanRecorder(wl.name, prefix=spec["tag"], enabled=traced)
    ops = OpLog()
    work_dir = Path(spec["work_dir"])
    _, _, warmup = wl.sizes(smoke)
    cols = wl.columns_per_request

    start = time.perf_counter()
    with rec.span("data", "generate"):
        W, blocks = workloads.serve_inputs(wl, seed, smoke)
        payloads = [_post_bytes(json.dumps({"columns": b.T.tolist()}).encode()) for b in blocks]
        model_path = workloads.basis_model(W, seed).save(work_dir / f"{MODEL}.npz")
    generate_s = time.perf_counter() - start

    out = {"generate_s": generate_s, "phases": [], "traced_phases": []}
    try:
        with rec.span("serve", "server_start"):
            server = Server(model_path, env)
    except (RuntimeError, OSError):
        ops.record("server_start", [traceback.format_exc(limit=4)])
        model_path.unlink(missing_ok=True)
        out.update(ops=ops.as_dict(), spans=rec.spans, peak_rss_mb=peak_rss_mb())
        return out
    ops.record("server_start", [])
    out["setup_s"] = server.ready_s

    first: Dict[int, dict] = {}   # pool index -> first parsed response

    def account(phase: dict, timed: bool) -> dict:
        latencies, good_columns = [], 0
        for index, latency, raw, error in phase["samples"]:
            problems, payload = _check_response(raw, error, cols)
            if payload is not None and not problems:
                latencies.append(latency)
                good_columns += cols
                first.setdefault(index, payload)
            if timed:
                ops.record("request", problems)
            elif problems:
                ops.record("warmup_request", problems)
        return {"wall_s": phase["wall_s"], "latencies_s": latencies, "columns": good_columns}

    try:
        loop = ClosedLoop(server.port, payloads, wl.connections, wl.name, spec["tag"])
        account(loop.phase(max(1, warmup // wl.connections), 0.0), timed=False)
        per_conn = max(1, spec["min_ops"] // wl.connections)
        out["host_ref"] = [hostref.sample()]
        # The timed budget runs in slices with a reading of the host reference
        # between them; a traced child alternates untraced and traced slices so
        # that a drift of the host does not read as tracing overhead.
        slices = 4 if traced else 3
        for i in range(slices):
            is_traced = traced and i % 2 == 1
            phase = account(
                loop.phase(-(-per_conn // slices), spec["budget_s"] / slices, traced=is_traced), True
            )
            out["traced_phases" if is_traced else "phases"].append(phase)
            out["host_ref"].append(hostref.sample())
        status, stats = _get(server.port, "/stats")
        ops.record("stats", [] if status == 200 else [f"/stats returned {status}"])
        out["stats"] = {k: v for k, v in stats.items() if k != "models"}
    finally:
        returncode = server.stop()
        model_path.unlink(missing_ok=True)
    ops.record("server_stop", [] if returncode == 0 else [f"server exited with {returncode}"])

    # Sampled responses must equal the projection engine called directly.
    seen = sorted(first)
    step = max(1, len(seen) // wl.verify_samples)
    for index in seen[::step][: wl.verify_samples]:
        want = project(W, blocks[index]).T
        got = np.asarray(first[index]["h"])
        same = got.shape == want.shape and np.allclose(got, want, rtol=1e-12, atol=1e-12)
        ops.record("direct_projection", [] if same else [f"request {index} differs from project()"])
    residuals = [r for index in seen for r in first[index]["residuals"]]
    out["rel_err"] = float(np.mean(residuals)) if residuals else float("nan")
    out["pool_covered"] = len(seen) / len(payloads)
    out.update(ops=ops.as_dict(), spans=rec.spans + loop.spans(), peak_rss_mb=peak_rss_mb())
    return out
