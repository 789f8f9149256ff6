"""Backend parity: every backend must produce identical NMF results.

All backends evaluate every reduction in rank order, so for a fixed seed and
grid the factor matrices must be *byte-identical* across backends — on both
algorithms (2 and 3) and both dense and sparse inputs.  For the process
backend this additionally proves the shared-memory deposit slots move float64
payloads bit-exactly (no pickling or re-encoding on the hot path).  This is
also the determinism contract of the lockstep backend itself: two runs, same
bytes.
"""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.api import fit
from repro.core.config import NMFConfig
from repro.data.lowrank import planted_lowrank


@pytest.fixture(autouse=True)
def _silence_oversubscription():
    # p=4 oversubscribes small hosts; the warning has its own test in
    # tests/comm/test_forked_backends.py.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def _dense():
    return planted_lowrank(32, 24, 3, seed=5, noise_std=0.05)


def _sparse():
    return sp.random(32, 24, density=0.2, random_state=5, format="csr")


@pytest.mark.parametrize("other_backend", ["lockstep", "process", "socket"])
@pytest.mark.parametrize("algorithm", ["naive", "hpc1d", "hpc2d"])
@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_backends_produce_identical_factors(algorithm, kind, other_backend):
    A = _dense() if kind == "dense" else _sparse()
    kwargs = dict(n_ranks=4, variant=algorithm, max_iters=4, seed=9)
    via_thread = fit(A, 3, backend="thread", **kwargs)
    via_other = fit(A, 3, backend=other_backend, **kwargs)
    assert via_thread.W.tobytes() == via_other.W.tobytes()
    assert via_thread.H.tobytes() == via_other.H.tobytes()
    assert via_thread.grid_shape == via_other.grid_shape
    np.testing.assert_array_equal(
        via_thread.relative_error_history, via_other.relative_error_history
    )


@pytest.mark.parametrize("algorithm", ["naive", "hpc2d"])
def test_lockstep_is_deterministic_run_to_run(algorithm):
    A = _dense()
    first = fit(A, 3, n_ranks=4, variant=algorithm,
                         backend="lockstep", max_iters=5, seed=3)
    second = fit(A, 3, n_ranks=4, variant=algorithm,
                          backend="lockstep", max_iters=5, seed=3)
    assert first.W.tobytes() == second.W.tobytes()
    assert first.H.tobytes() == second.H.tobytes()


def test_backend_flows_through_config():
    A = _dense()
    cfg = NMFConfig(k=3, max_iters=3, seed=2, backend="lockstep")
    via_config = fit(A, 3, n_ranks=4, config=cfg)
    via_kwarg = fit(A, 3, n_ranks=4, backend="lockstep", max_iters=3, seed=2)
    assert via_config.W.tobytes() == via_kwarg.W.tobytes()
    assert via_config.config.backend == "lockstep"


def test_unknown_backend_raises_helpful_error():
    from repro.util.errors import CommunicatorError

    with pytest.raises(CommunicatorError, match="unknown backend"):
        fit(_dense(), 3, n_ranks=2, backend="carrier-pigeon", max_iters=2)


def test_fit_rejects_unknown_backend_eagerly_with_suggestions():
    """The front door fails before any work, listing the registry and the
    closest name — a typo'd backend must not silently fall back."""
    from repro.core.api import fit
    from repro.util.errors import CommunicatorError

    with pytest.raises(CommunicatorError) as excinfo:
        fit(_dense(), 3, variant="hpc2d", n_ranks=2, backend="procss", max_iters=2)
    message = str(excinfo.value)
    assert "did you mean 'process'" in message
    for name in ("lockstep", "process", "thread"):
        assert name in message


def test_cli_rejects_unknown_backend_with_choice_list(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["factorize", "SSYN", "-k", "3", "--backend", "procss"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    for name in ("lockstep", "process", "thread"):
        assert name in err


def test_ssyn_acceptance_socket_matches_process_byte_for_byte():
    """The PR's wire acceptance pin: `repro factorize SSYN -k 4 --variant
    hpc2d --ranks 4 --backend socket` must produce exactly the bytes the
    process backend produces — TCP framing is transport, not arithmetic."""
    from repro.core.api import fit
    from repro.data.registry import measured_scale

    A = measured_scale("SSYN").load()
    kwargs = dict(variant="hpc2d", n_ranks=4, max_iters=3, seed=42)
    via_socket = fit(A, 4, backend="socket", **kwargs)
    via_process = fit(A, 4, backend="process", **kwargs)
    assert via_socket.W.tobytes() == via_process.W.tobytes()
    assert via_socket.H.tobytes() == via_process.H.tobytes()
    assert via_socket.grid_shape == via_process.grid_shape


def test_handle_path_stays_byte_identical_over_the_wire():
    """The loop's one path (blocking collectives, panel-streamed) gives the same
    bytes over TCP as through the thread backend's slots, whatever the inert
    ``overlap`` says."""
    from repro.core.api import fit

    A = _dense()
    kwargs = dict(variant="hpc2d", n_ranks=4, max_iters=4, seed=9)
    blocking = fit(A, 3, backend="thread", overlap=False, **kwargs)
    wired = fit(A, 3, backend="socket", overlap=True, **kwargs)
    assert blocking.W.tobytes() == wired.W.tobytes()
    assert blocking.H.tobytes() == wired.H.tobytes()


def test_socket_backend_observer_state_comes_home():
    """Observers must come home over the wire too (rank 0's state is shipped
    back pickled), matching the process backend's contract."""
    from repro.core.api import fit
    from repro.core.observers import HistoryRecorder

    recorder = HistoryRecorder()
    fit(_dense(), 3, variant="hpc2d", n_ranks=2, backend="socket",
        max_iters=3, seed=1, observers=[recorder])
    assert len(recorder.history) == 3
    assert [s.iteration for s in recorder.history] == [0, 1, 2]


def test_process_backend_observer_state_comes_home():
    """Stateful observers run on rank 0's process; their recorded state must
    reach the caller's objects, as it does on the in-process backends."""
    from repro.core.api import fit
    from repro.core.observers import HistoryRecorder

    recorder = HistoryRecorder()
    fit(_dense(), 3, variant="hpc2d", n_ranks=2, backend="process",
        max_iters=3, seed=1, observers=[recorder])
    assert len(recorder.history) == 3
    assert [s.iteration for s in recorder.history] == [0, 1, 2]
