"""The pre-forked server: every worker answers, worker 0 owns the state.

Each live test starts ``repro serve`` in its own session with the CPU count
the supervisor reads patched to 2, so two worker processes share the
listening socket on any host.  Connections land on either worker: a test
that needs both to answer keeps asking until the ``X-Repro-Worker``
response header has named both.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.serve.supervisor as supervisor
from repro.cli import main
from repro.serve import ModelStore, project

_SRC = str(Path(repro.__file__).resolve().parents[1])
_LAUNCH = (
    "import sys\n"
    "import repro.serve.supervisor as supervisor\n"
    "supervisor.available_cpus = lambda: {cpus}\n"
    "from repro.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)
M = 32


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    from repro.core.api import fit
    from repro.data.lowrank import planted_lowrank

    model = fit(planted_lowrank(M, 24, 2, seed=0, noise_std=0.02), 2, max_iters=2, seed=1)
    return model.save(tmp_path_factory.mktemp("workers") / "model.npz")


def _processes(field: int, value: int, zombies: bool) -> list:
    """Pids whose ``/proc/<pid>/stat`` field after the command name equals
    ``value`` (1: parent pid, 3: session)."""
    pids = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue
            if (zombies or fields[0] != "Z") and int(fields[field]) == value:
                pids.append(int(entry.name))
    return pids


def _session_members(sid: int) -> list:
    """Live processes of session ``sid`` (an orphan's zombie is init's to reap)."""
    return _processes(3, sid, zombies=False)


def _children(pid: int) -> list:
    """Children of ``pid``, zombies included: a reaped child is gone."""
    return _processes(1, pid, zombies=True)


def _until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.02)


class _Server:
    """``repro serve`` in a new session, with ``cpus`` workers."""

    def __init__(self, model_path, *options, cpus=2):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _LAUNCH.format(cpus=cpus), "serve", str(model_path),
             "--port", "0", *options],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        banner = self.proc.stdout.readline()
        assert "http://" in banner, banner
        self.base = "http://" + banner.split("http://", 1)[1].split()[0]

    def call(self, path, payload=None):
        """(answering worker, status, body) of one request."""
        data = json.dumps(payload).encode() if payload is not None else None
        request = urllib.request.Request(self.base + path, data=data)
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return (int(response.headers["X-Repro-Worker"]), response.status,
                        json.loads(response.read()))
        except urllib.error.HTTPError as exc:
            return int(exc.headers["X-Repro-Worker"]), exc.code, json.loads(exc.read())

    def from_every_worker(self, path, payload=None, workers=(0, 1), rounds=100):
        """Send bursts of concurrent requests until each of ``workers`` has
        answered; {worker: body}.  (An idle worker is not guaranteed to win
        a lone connection, but each takes one per wakeup of a burst.)"""
        answers = {}
        burst = 2 * len(workers)
        with ThreadPoolExecutor(burst) as clients:
            for _ in range(rounds):
                for worker, status, body in clients.map(
                        lambda _: self.call(path, payload), range(burst)):
                    assert status == 200, body
                    answers.setdefault(worker, body)
                if set(answers) >= set(workers):
                    return answers
        raise AssertionError(f"only workers {sorted(answers)} answered {path}")

    def stop(self, signum=signal.SIGINT, group=False, timeout=10.0):
        """Signal worker 0 (or, like a terminal's Ctrl-C, the whole group);
        the exit code.  ``self.stderr`` keeps what the server wrote there."""
        if group:
            os.killpg(self.proc.pid, signum)
        else:
            self.proc.send_signal(signum)
        _, self.stderr = self.proc.communicate(timeout=timeout)
        return self.proc.returncode

    def cleanup(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if not self.proc.stdout.closed:  # stop() has not collected it
            self.proc.communicate()


@pytest.fixture()
def start(model_path):
    servers = []

    def launch(*options, cpus=2):
        server = _Server(model_path, *options, cpus=cpus)
        servers.append(server)
        return server

    yield launch
    for server in servers:
        server.cleanup()


def test_every_response_equals_the_solo_scalar_projection(start, model_path):
    server = start()
    entry = ModelStore().load(model_path)
    X = np.abs(np.random.default_rng(3).standard_normal((M, 64)))

    def one(i):
        return server.call("/v1/models/model/project", {"column": X[:, i].tolist()})

    answered = set()
    for _ in range(5):
        with ThreadPoolExecutor(4) as clients:
            results = list(clients.map(one, range(X.shape[1])))
        for i, (worker, status, body) in enumerate(results):
            assert status == 200, body
            alone = project(entry.W, X[:, [i]], kernel="scalar", gram=entry.gram)
            assert body["h"] == alone.T.tolist()
            answered.add(worker)
        if answered == {0, 1}:
            break
    assert answered == {0, 1}


def test_ingests_publish_on_worker_0_and_reach_every_worker(start):
    server = start("--refresh-every", "4")
    rng = np.random.default_rng(4)
    forwarded, rounds = set(), 0
    # Rounds of four concurrent ingests until both workers have taken one:
    # worker 1's are forwarded, and every fourth column publishes a version.
    with ThreadPoolExecutor(4) as clients:
        while forwarded != {0, 1}:
            assert rounds < 20, "worker 1 never took an ingest"
            rounds += 1
            columns = np.abs(rng.standard_normal((4, M))).tolist()
            results = list(clients.map(
                lambda column: server.call("/v1/models/model/ingest", {"column": column}),
                columns))
            assert [status for _, status, _ in results] == [200] * 4
            seen = sorted(body["columns_seen"] for _, _, body in results)
            assert seen == list(range(4 * rounds - 3, 4 * rounds + 1))
            assert max(body["serving_version"] for _, _, body in results) == 1 + rounds
            forwarded |= {worker for worker, _, _ in results}
    newest = 1 + rounds
    projections = server.from_every_worker("/v1/models/model/project", {"column": [1.0] * M})
    assert {body["version"] for body in projections.values()} == {newest}


def test_concurrent_ingests_over_more_workers_than_cpus_lose_no_column(start):
    """Four workers, four clients, 32 ingests at once: worker 0 folds every
    column in exactly once, publishes eight versions, and every worker ends
    on the last one."""
    server = start("--refresh-every", "4", cpus=4)
    columns = np.abs(np.random.default_rng(5).standard_normal((32, M))).tolist()
    with ThreadPoolExecutor(4) as clients:
        results = list(clients.map(
            lambda column: server.call("/v1/models/model/ingest", {"column": column}), columns))
    assert [status for _, status, _ in results] == [200] * 32
    assert sorted(body["columns_seen"] for _, _, body in results) == list(range(1, 33))
    health = server.from_every_worker("/healthz", workers=range(4))
    assert {h["models"][0]["version"] for h in health.values()} == {1 + 32 // 4}


def test_reload_returns_once_every_worker_serves_the_new_version(start):
    server = start()
    _, status, body = server.call("/v1/models/model/reload", {})
    assert status == 200 and body["version"] == 2
    health = server.from_every_worker("/healthz")
    assert [h["models"][0]["version"] for h in health.values()] == [2, 2]
    projections = server.from_every_worker("/v1/models/model/project", {"column": [1.0] * M})
    assert {body["version"] for body in projections.values()} == {2}


def test_stats_are_merged_over_every_worker(start):
    server = start()
    with ThreadPoolExecutor(4) as clients:
        results = list(clients.map(
            lambda i: server.call("/v1/models/model/project", {"column": [1.0 + i] * M}),
            range(40)))
    assert [status for _, status, _ in results] == [200] * 40
    stats = server.from_every_worker("/stats")
    for snapshot in stats.values():
        assert snapshot["requests_total"] == snapshot["responses_total"] == 40
        assert sum(snapshot["batch_columns_histogram"].values()) == snapshot["batches_total"]


@pytest.mark.parametrize("signum, group", [
    (signal.SIGINT, False), (signal.SIGTERM, False), (signal.SIGINT, True),
], ids=["SIGINT", "SIGTERM", "ctrl-c"])
def test_a_signal_to_worker_0_stops_every_worker(start, signum, group):
    server = start()
    assert server.from_every_worker("/healthz")[1]["workers"] == {"started": 2, "alive": 2}
    assert len(_session_members(server.proc.pid)) == 2
    assert server.stop(signum, group=group) == 0
    assert _session_members(server.proc.pid) == []
    assert server.stderr == ""  # no worker died of the signal


def test_worker_0_keeps_serving_when_a_worker_dies(start):
    server = start()
    server.from_every_worker("/healthz")
    (worker_pid,) = _children(server.proc.pid)
    os.kill(worker_pid, signal.SIGKILL)
    _until(lambda: server.call("/healthz")[2]["workers"] == {"started": 2, "alive": 1})
    _until(lambda: _children(server.proc.pid) == [])  # reaped, not a zombie
    for _ in range(10):
        worker, status, body = server.call("/v1/models/model/project", {"column": [1.0] * M})
        assert (worker, status) == (0, 200)
    _, status, stats = server.call("/stats")
    assert status == 200 and stats["responses_total"] == 10
    assert server.stop() == 0


def test_no_worker_outlives_a_killed_worker_0(start):
    server = start()
    server.from_every_worker("/healthz")
    server.proc.kill()
    server.proc.wait()
    _until(lambda: _session_members(server.proc.pid) == [], timeout=2.0)


def test_one_cpu_means_one_process(start):
    server = start(cpus=1)
    worker, status, health = server.call("/healthz")
    assert (worker, status) == (0, 200)
    assert health["workers"] == {"started": 1, "alive": 1}
    assert _children(server.proc.pid) == []
    assert server.stop() == 0


def test_in_process_self_test_never_returns_a_worker(model_path, monkeypatch, capsys):
    """Every forked worker ends inside the supervisor and exits 0."""
    parent = os.getpid()
    statuses = []
    waitpid = os.waitpid

    def recording_waitpid(pid, options):
        reaped = waitpid(pid, options)
        if reaped[0]:
            statuses.append(os.waitstatus_to_exitcode(reaped[1]))
        return reaped

    monkeypatch.setattr(supervisor, "available_cpus", lambda: 3)
    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    try:
        code = main(["serve", str(model_path), "--port", "0", "--self-test", "6"])
    finally:
        if os.getpid() != parent:  # a worker came back: end it here, visibly
            os._exit(70)
    assert code == 0
    assert statuses == [0, 0]
    assert "3 workers" in capsys.readouterr().out


def test_one_cpu_never_forks(model_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked with one CPU")

    monkeypatch.setattr(supervisor, "available_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["serve", str(model_path), "--port", "0", "--self-test", "2"]) == 0
