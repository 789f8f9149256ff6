"""The execution backends: the name table, thread, and lockstep."""

import threading

import numpy as np
import pytest

from repro.comm.backends import (
    Backend,
    LockstepBackend,
    ThreadBackend,
    available_backends,
    get_backend_class,
    run_spmd,
)
from repro.comm.backends.mpi import MPI4PY_AVAILABLE
from repro.util.errors import CommunicatorError


class TestRegistry:
    @pytest.mark.skipif(MPI4PY_AVAILABLE, reason="mpi4py is installed")
    def test_every_backend_but_mpi_is_available_here(self):
        assert available_backends() == ["lockstep", "process", "socket", "thread"]

    def test_get_backend_class(self):
        assert get_backend_class("thread") is ThreadBackend
        assert get_backend_class("lockstep") is LockstepBackend

    def test_unknown_backend_error_lists_available(self):
        with pytest.raises(CommunicatorError, match="lockstep.*thread"):
            get_backend_class("carrier-pigeon")

    @pytest.mark.parametrize("typo,meant", [("proces", "process"), ("lockstp", "lockstep"),
                                            ("sockets", "socket"), ("thred", "thread")])
    def test_a_typo_gets_a_did_you_mean_hint(self, typo, meant):
        with pytest.raises(CommunicatorError, match=f"did you mean '{meant}'"):
            get_backend_class(typo)

    def test_run_spmd_takes_a_name_only(self):
        assert run_spmd(2, lambda comm: comm.rank, backend="lockstep") == [0, 1]
        with pytest.raises(CommunicatorError, match="unknown backend"):
            run_spmd(2, lambda comm: comm.rank, backend="eager-test")

    def test_invalid_n_ranks(self):
        with pytest.raises(CommunicatorError):
            LockstepBackend(0)


def _collective_program(comm):
    local = np.arange(3.0) + 10 * comm.rank
    total = comm.allreduce(local)
    gathered = comm.allgatherv(np.array([float(comm.rank)]))
    piece = comm.reduce_scatter(np.arange(comm.size, dtype=float))
    sub = comm.split(color=comm.rank % 2)
    subsum = sub.allreduce_scalar(comm.rank)
    return total.tolist(), gathered.tolist(), piece.tolist(), subsum


class TestLockstepBackend:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_matches_thread_backend(self, p):
        lockstep = run_spmd(p, _collective_program, backend="lockstep")
        thread = run_spmd(p, _collective_program, backend="thread")
        assert lockstep == thread

    def test_never_more_than_one_rank_running(self):
        backend = LockstepBackend(8)
        backend.run(_collective_program)
        assert backend.max_concurrency == 1

    def test_schedule_trace_is_reproducible(self):
        first = LockstepBackend(5)
        second = LockstepBackend(5)
        first.run(_collective_program)
        second.run(_collective_program)
        assert first.schedule_trace == second.schedule_trace
        assert first.schedule_trace[0] == 0  # rank order, rank 0 first

    def test_point_to_point_ring(self):
        def program(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(comm.rank, dest=right)
            return comm.recv(source=left)

        assert run_spmd(5, program, backend="lockstep") == [4, 0, 1, 2, 3]

    def test_exception_propagates(self):
        def program(comm):
            comm.barrier()
            if comm.rank == 1:
                raise ValueError("rank 1 exploded")
            comm.barrier()

        with pytest.raises(ValueError, match="rank 1 exploded"):
            run_spmd(3, program, backend="lockstep")

    @pytest.mark.parametrize("backend", ["thread", "lockstep"])
    def test_real_failure_preferred_over_peer_abort_echoes(self, backend):
        """The failing rank's exception wins even when lower ranks only saw
        the broken barrier / abort echo."""

        def program(comm):
            if comm.rank == 2:
                raise ValueError("the real bug on rank 2")
            comm.barrier()

        with pytest.raises(ValueError, match="the real bug on rank 2"):
            run_spmd(4, program, backend=backend)

    @pytest.mark.filterwarnings("ignore:.*oversubscribe.*:RuntimeWarning")  # 4 forked ranks
    @pytest.mark.parametrize("backend", ["thread", "lockstep", "process", "socket"])
    def test_failure_releases_peers_waiting_on_a_sub_communicator(self, backend):
        """A rank that fails while its peers wait inside (or are about to
        enter) a row/column communicator's collective must not strand them:
        the abort reaches the groups split from the world, nested ones too."""
        import threading

        def program(comm):
            row = comm.split(color=comm.rank // 2)
            nested = row.split(color=0)
            if comm.rank == 3:
                raise ValueError("the real bug on rank 3")
            if comm.rank == 2:
                row.barrier()          # rank 3's row partner: waits for it
            else:
                comm.barrier()         # the other row: waits on the world
            nested.barrier()           # not reached with an intact barrier

        outcome = []

        def run():
            try:
                run_spmd(4, program, backend=backend)
            except BaseException as exc:  # noqa: BLE001 - reported below
                outcome.append(exc)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive(), "peers of the failed rank never returned"
        (exc,) = outcome
        assert isinstance(exc, ValueError) and "the real bug on rank 3" in str(exc)

    def test_deadlock_detected_with_diagnosis(self):
        def program(comm):
            if comm.rank == 0:
                return comm.recv(source=1)
            comm.barrier()

        with pytest.raises(CommunicatorError, match="deadlock") as excinfo:
            run_spmd(2, program, backend="lockstep")
        message = str(excinfo.value)
        assert "rank 0" in message and "recv" in message
        assert "rank 1" in message and "barrier" in message

    def test_early_finish_while_peers_wait_is_a_deadlock(self):
        def program(comm):
            if comm.rank == 1:
                return "bye"
            comm.barrier()

        with pytest.raises(CommunicatorError, match="finished"):
            run_spmd(2, program, backend="lockstep")

    def test_simulates_256_ranks_on_a_16x16_grid(self):
        """Acceptance: p = 256 HPC-NMF completes with one runnable rank."""
        from repro.core.api import fit

        A = np.abs(np.random.default_rng(0).standard_normal((256, 256)))
        backend_threads_before = threading.active_count()
        res = fit(
            A,
            2,
            n_ranks=256,
            variant="hpc2d",
            grid=(16, 16),
            backend="lockstep",
            max_iters=3,
            compute_error=False,
            seed=7,
        )
        assert res.grid_shape == (16, 16)
        assert res.n_ranks == 256
        assert res.W.shape == (256, 2) and res.H.shape == (2, 256)
        # All carrier threads are gone; none of them ever ran concurrently
        # (the per-run assertion lives in test_never_more_than_one_rank_running;
        # here we check the backend leaves no thread pool behind).
        assert threading.active_count() == backend_threads_before

    def test_backend_is_subclass_contract(self):
        assert issubclass(LockstepBackend, Backend)
        assert issubclass(ThreadBackend, Backend)


class TestRecvDiagnostics:
    def test_timeout_error_names_ranks_tag_and_timeout(self):
        def program(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=7, timeout=0.05)
            return True

        with pytest.raises(CommunicatorError) as excinfo:
            run_spmd(2, program, backend="thread")
        message = str(excinfo.value)
        assert "source rank 1" in message
        assert "destination rank 0" in message
        assert "tag 7" in message
        assert "0.05" in message

    def test_mismatched_tag_still_reported(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(np.zeros(1), dest=1, tag=3)
            else:
                with pytest.raises(CommunicatorError, match="expected tag 9"):
                    comm.recv(source=0, tag=9)
            return True

        assert all(run_spmd(2, program, backend="lockstep"))
