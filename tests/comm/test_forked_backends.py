"""The forked SPMD backends: one runtime, two places for collective payloads.

``"process"`` (shared-memory deposit slots) and ``"socket"`` (TCP frames)
share one launcher, token transport and reaper
(:mod:`repro.comm.backends.forked`), so one suite runs against both: the same
``Comm`` surface as the in-process backends — identical collective results
(including the ``out=``/workspace fast paths, post-fork ``split``
sub-communicators and the ``CommHandle`` request path), faithful failure
propagation, timeouts and dead ranks that name the peer, and nothing left
behind.  The cases that only make sense for one payload path follow the
shared ones.
"""

import hashlib
import multiprocessing
import os
import re
import signal
import socket
import threading
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.comm import ProcessGrid
from repro.comm.backends import (
    Backend,
    ProcessBackend,
    SocketBackend,
    available_backends,
    get_backend_class,
    run_spmd,
)
from repro.comm.backends.forked import _Collector
from repro.comm.wire import encode_frame_parts, send_frame
from repro.util import available_cpus
from repro.util.errors import CommunicatorError

FORKED = ["process", "socket"]


@pytest.fixture(params=FORKED)
def backend(request):
    return request.param


@pytest.fixture(autouse=True)
def _silence_oversubscription():
    # This suite deliberately runs more ranks than the host may have CPUs;
    # the oversubscription warning itself is asserted in its own test.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def _shm_segments():
    return {f for f in os.listdir("/dev/shm") if f.startswith("repro-")}


@pytest.fixture(autouse=True)
def _nothing_left_behind(refuse_helper_threads):
    """After every run, clean or failed: no rank process, segment or thread —
    and no ``nb-helper*`` thread ever *starts*, on any backend."""
    segments_before = _shm_segments()
    yield
    assert multiprocessing.active_children() == []
    assert _shm_segments() <= segments_before
    stray = [
        t.name for t in threading.enumerate()
        if t.name.startswith("nb-helper") or re.match(r"repro-r\d+-(from|accept)", t.name)
    ]
    assert stray == []


def _collective_program(comm):
    local = np.arange(3.0) + 10 * comm.rank
    total = comm.allreduce(local)
    gathered = comm.allgatherv(np.array([float(comm.rank)]))
    piece = comm.reduce_scatter(np.arange(comm.size, dtype=float))
    sub = comm.split(color=comm.rank % 2)
    subsum = sub.allreduce_scalar(comm.rank)
    reused = comm.workspace.get("acc", (3,))
    comm.allreduce(local, out=reused)
    return total.tolist(), gathered.tolist(), piece.tolist(), subsum, reused.tolist()


def _handles_program(comm):
    """Request handles (issue, compute, claim) next to a blocking collective."""
    handle = comm.iallreduce(np.arange(4.0) + comm.rank)
    local = float(np.sum(np.arange(10.0) * comm.rank))
    total = handle.wait()
    gather = comm.iallgatherv(np.full(2, float(comm.rank)))
    scatter = comm.reduce_scatter(np.arange(2.0 * comm.size))
    return total.tolist(), local, gather.wait().tolist(), scatter.tolist()


class TestRegistry:
    def test_backend_is_registered(self, backend):
        cls = {"process": ProcessBackend, "socket": SocketBackend}[backend]
        assert backend in available_backends()
        assert get_backend_class(backend) is cls
        assert issubclass(cls, Backend)

    def test_unknown_backend_suggests_close_match(self):
        with pytest.raises(CommunicatorError, match="did you mean 'process'"):
            get_backend_class("proces")


class TestForkedBackends:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_matches_thread_backend(self, backend, p):
        """Collectives (incl. non-power-of-two groups and post-fork splits)
        produce the same values as the in-process substrate."""
        via_forked = run_spmd(p, _collective_program, backend=backend)
        via_thread = run_spmd(p, _collective_program, backend="thread")
        assert via_forked == via_thread

    @pytest.mark.parametrize("p", [2, 3])
    def test_handles_match_thread_backend(self, backend, p):
        """The CommHandle path (iallreduce/iallgatherv) next to a blocking
        reduce-scatter."""
        via_forked = run_spmd(p, _handles_program, backend=backend)
        via_thread = run_spmd(p, _handles_program, backend="thread")
        assert via_forked == via_thread

    def test_point_to_point_ring(self, backend):
        def program(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(comm.rank, dest=right)
            return comm.recv(source=left)

        assert run_spmd(5, program, backend=backend) == [4, 0, 1, 2, 3]

    def test_grid_split_after_the_fork(self, backend):
        """Row/column sub-communicators (the 2D grid's backbone) work after
        the world group was wired up: split must build fresh mailboxes."""

        def program(comm):
            row = comm.split(color=comm.rank // 2)
            col = comm.split(color=comm.rank % 2)
            return row.allreduce_scalar(comm.rank), col.allreduce_scalar(comm.rank)

        assert run_spmd(4, program, backend=backend) == [
            (1.0, 2.0), (1.0, 4.0), (5.0, 2.0), (5.0, 4.0),
        ]

    def test_object_payloads_take_the_pickle_path(self, backend):
        def program(comm):
            meta = comm.allgather_object({"rank": comm.rank, "tag": "x" * comm.rank})
            return [m["rank"] for m in meta]

        assert run_spmd(3, program, backend=backend) == [[0, 1, 2]] * 3

    def test_bcast_and_allgather_object_results_survive_later_collectives(self, backend):
        """Slot reads must be detached before they escape: a gathered array
        must not be rewritten when its owner's segment is reused.  (The name
        predates the removal of ``bcast``; kept so the test id is stable.)"""

        def program(comm):
            gathered = comm.allgather_object(np.full(4, float(comm.rank)))
            comm.allreduce(np.full(4, 99.0))  # reuses every deposit segment
            return all(g.tolist() == [float(r)] * 4 for r, g in enumerate(gathered))

        assert all(run_spmd(3, program, backend=backend))

    def test_exception_propagates_with_real_failure_preferred(self, backend):
        def program(comm):
            comm.barrier()
            if comm.rank == 1:
                raise ValueError("rank 1 exploded")
            comm.barrier()

        with pytest.raises(ValueError, match="rank 1 exploded"):
            run_spmd(3, program, backend=backend)

    def test_exception_between_a_collectives_barriers_does_not_strand_the_peer(self, backend):
        """Rank 0's ``out`` cannot hold what rank 1 contributed — known only
        once the contributions are in, i.e. inside the compute phase over
        slots.  Rank 0 must still pass the closing barrier: rank 1 completes
        the gather, and the next collective finds both ranks in step."""

        def program(comm):
            if comm.rank == 0:
                with pytest.raises(CommunicatorError, match="cannot hold"):
                    comm.allgatherv(np.ones(2, np.float32), out=np.empty(4, np.float32))
            else:
                comm.allgatherv(np.ones(2))
            return comm.allreduce_scalar(comm.rank + 1.0)

        assert run_spmd(2, program, backend=backend) == [3.0, 3.0]

    def test_recv_timeout_raises_naming_the_silent_peer(self, backend):
        def program(comm):
            if comm.rank == 1:
                # Nobody ever sends: must time out, not hang, and the error
                # must say who rank 1 was waiting for.
                comm.recv(source=0, tag=7, timeout=0.3)
            return True

        with pytest.raises(CommunicatorError, match="timed out") as excinfo:
            run_spmd(2, program, backend=backend)
        assert "rank 0" in str(excinfo.value)

    def test_backend_timeout_bounds_the_receives_inside_a_collective(self):
        """A rank that never joins a point-to-point collective is reported
        by its peer within the backend's ``timeout`` — the limit barriers
        obey — not after ``recv``'s former fixed 60 s."""

        def program(comm):
            if comm.rank == 0:
                comm.allreduce(np.ones(4))
            else:
                time.sleep(1.5)  # alive (no EOF to notice), but absent

        start = time.monotonic()
        with pytest.raises(CommunicatorError, match="timed out after 0.5s") as excinfo:
            SocketBackend(2, timeout=0.5).run(program)
        assert time.monotonic() - start < 5.0
        assert "source rank 1" in str(excinfo.value)

    def test_dead_rank_is_detected_and_named(self, backend):
        """A rank that dies without reporting (killed, segfaulted) must not
        hang its peers, and the reported failure must name the dead rank and
        its exit code."""

        def program(comm):
            if comm.rank == 2:
                os._exit(3)
            comm.allreduce(np.ones(4))
            return True

        with pytest.raises(CommunicatorError, match="rank 2") as excinfo:
            run_spmd(4, program, backend=backend)
        assert "exit code 3" in str(excinfo.value)

    def test_survivors_see_an_abort_naming_the_dead_peer(self, backend):
        """Fault injection from the survivor's seat: the CommunicatorError a
        blocked rank gets when a peer dies mid-collective must name that
        peer, not just say the collective failed."""

        def program(comm):
            if comm.rank == 2:
                os._exit(9)
            try:
                comm.allreduce(np.ones(8))
            except CommunicatorError as exc:
                # Re-raise as a non-communicator error so raise_first_failure
                # prefers it over the parent's died-without-reporting record
                # and the survivor-side message becomes assertable here.
                raise RuntimeError(f"survivor saw: {exc}") from exc
            return "collective unexpectedly succeeded"

        with pytest.raises(RuntimeError, match="survivor saw:") as excinfo:
            run_spmd(4, program, backend=backend)
        assert "rank 2" in str(excinfo.value)

    def test_report_stream_yields_the_frame_or_names_the_dead_rank(self, backend):
        """The parent's end of a rank's report stream: a frame written before
        the rank exited is still read (observer state included) and reaches
        the parent's observers; EOF with no frame is the rank's death."""

        class Exited:
            pid, exitcode = 4242, 3

            def join(self):
                pass

        read_report = get_backend_class(backend)._read_report
        observer = SimpleNamespace(iterations_seen=0)
        collector = _Collector(2, [observer])
        block = np.arange(6.0).reshape(2, 3)
        for rank, report in enumerate(
            [("ok", {"W_local": block}, [{"iterations_seen": 7}]), None]
        ):
            reader, writer = socket.socketpair()
            with reader, writer:
                if report is not None:
                    send_frame(writer, encode_frame_parts(rank, report))
                writer.close()
                collector.collect(read_report(reader, rank, Exited()))
        assert collector.collected == [True, True]
        np.testing.assert_array_equal(collector.results[0]["W_local"], block)
        assert observer.iterations_seen == 7
        failure = collector.results[1].exception
        assert isinstance(failure, CommunicatorError)
        assert "rank 1 (pid 4242) died with exit code 3" in str(failure)

    def test_large_results_come_home_intact(self, backend):
        """Results far larger than a socket buffer, from every rank at once."""

        def program(comm):
            return np.full((300_000,), float(comm.rank)), {"rank": comm.rank}

        results = run_spmd(3, program, backend=backend)
        for rank, (block, meta) in enumerate(results):
            assert meta == {"rank": rank}
            assert block.shape == (300_000,) and (block == rank).all()
            assert block.flags.writeable

    def test_oversubscription_warns(self, backend):
        with pytest.warns(RuntimeWarning, match=f"{backend} backend: .* oversubscribe"):
            get_backend_class(backend)(available_cpus() + 1)

    def test_fit_oversubscription_warns_instead_of_silently_running(self, backend):
        from repro.core.api import fit

        cpus = available_cpus()
        if cpus > 8:
            pytest.skip("would fork cpu_count+1 processes on a large host")
        A = np.abs(np.random.default_rng(0).standard_normal((24, 16)))
        with pytest.warns(RuntimeWarning, match="oversubscribe"):
            result = fit(A, 2, variant="hpc2d", n_ranks=cpus + 1,
                         backend=backend, max_iters=2, seed=1)
        assert result.n_ranks == cpus + 1  # warned, but still ran

    def test_single_rank_runs_inline(self, backend):
        runner = get_backend_class(backend)(1)
        assert runner.run(lambda comm: (os.getpid(), comm.size)) == [(os.getpid(), 1)]


def _kill_self_at_wait(comm, nth):
    """Make this rank SIGKILL itself on entering its ``nth`` barrier from now."""
    state, entered = comm._state, []
    real_wait = state.wait

    def wait():
        entered.append(None)
        if len(entered) == nth:
            os.kill(os.getpid(), signal.SIGKILL)
        real_wait()

    state.wait = wait


class TestFlagBarrier:
    """The shared-memory barrier's waits: who they notice, what they leave."""

    @pytest.mark.parametrize("nth", [1, 2], ids=["first-barrier", "second-barrier"])
    def test_rank_killed_while_its_peer_waits_in_a_collective(self, nth, tmp_path):
        """SIGKILL leaves no abort frame and no report: the survivor, spinning
        on a token that will never come, learns of it from the closed
        connection and names the dead rank; the parent names pid and signal."""
        seen = tmp_path / "survivor"

        def program(comm):
            if comm.rank == 1:
                _kill_self_at_wait(comm, nth)
            try:
                comm.allreduce(np.ones(8))
            except CommunicatorError as exc:
                seen.write_text(f"{type(exc).__name__}: {exc}")
                raise
            return "collective unexpectedly succeeded"

        with pytest.raises(CommunicatorError, match=r"rank 1 \(pid \d+\) died") as excinfo:
            run_spmd(2, program, backend="process")
        assert f"exit code {-signal.SIGKILL}" in str(excinfo.value)
        assert seen.read_text().startswith("PeerAbortError: ")
        assert "peer rank 1" in seen.read_text()

    def test_backend_timeout_bounds_the_wait_and_names_the_silent_rank(self):
        def program(comm):
            if comm.rank == 0:
                comm.allreduce(np.ones(4))
            else:
                time.sleep(1.0)  # alive (no EOF to notice), but absent

        start = time.monotonic()
        with pytest.raises(CommunicatorError, match="timed out after 0.5s") as excinfo:
            ProcessBackend(2, timeout=0.5).run(program)
        assert time.monotonic() - start < 2.0
        assert "from peer rank 1" in str(excinfo.value)

    @pytest.mark.parametrize("backend_name", ["process", "socket", "thread"])
    def test_handles_complete_at_issue_and_no_helper_thread_ever_starts(self, backend_name):
        def program(comm):
            engine = comm.ensure_nonblocking()
            handle = comm.iallreduce(np.arange(4.0))
            done_at_issue = handle.done
            handle.wait()
            names = [t.name for t in threading.enumerate()]
            comm.shutdown_nonblocking()
            return engine, done_at_issue, [n for n in names if n.startswith("nb-helper")]

        assert run_spmd(2, program, backend=backend_name) == [(False, True, [])] * 2


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
@pytest.mark.parametrize("p", [2, 4])
def test_ranks_sharing_one_cpu_are_not_starved_by_the_waiting_ones(p):
    """Every rank on one core: a waiter that span instead of yielding would
    hold the core its peer needs for a whole scheduler slice per barrier.
    Serialized compute may cost up to ``p`` cores' worth; the waits must not
    add to that — 3x the unpinned wall on this 2-CPU host — and the bytes do
    not depend on where the ranks ran.  The host's speed wanders, so pinned
    and unpinned fits alternate and each side keeps its best of three."""
    from repro.core.api import fit

    A = np.abs(np.random.default_rng(3).standard_normal((768, 512)))

    def timed_fit():
        start = time.perf_counter()
        result = fit(A, 8, variant="hpc2d", n_ranks=p, backend="process", max_iters=8, seed=2)
        return time.perf_counter() - start, result.W.tobytes() + result.H.tobytes()

    allowed = os.sched_getaffinity(0)
    free, pinned = [], []
    for _ in range(3):
        free.append(timed_fit())
        os.sched_setaffinity(0, {min(allowed)})
        try:
            pinned.append(timed_fit())
        finally:
            os.sched_setaffinity(0, allowed)
    assert len({factors for _, factors in free + pinned}) == 1
    assert min(wall for wall, _ in pinned) < 3.0 * min(wall for wall, _ in free)


_GRID_OPS = ("barrier", "allreduce", "allgatherv", "reduce_scatter")


def _group_order_program(comm, pr, pc, ops):
    """Run ``ops`` — (which communicator, collective, length) — and digest the results."""
    grid = ProcessGrid(comm, pr, pc)
    comms = (comm, grid.row_comm, grid.col_comm)
    digest = hashlib.sha256()
    for step, (which, op, length) in enumerate(ops):
        c = comms[which]
        rng = np.random.default_rng([step, comm.rank])
        if op == "barrier":
            c.barrier()
        elif op == "allreduce":
            digest.update(c.allreduce(rng.standard_normal(length)).tobytes())
        elif op == "allgatherv":
            digest.update(c.allgatherv(rng.standard_normal(length + comm.rank)).tobytes())
        else:
            digest.update(c.reduce_scatter(rng.standard_normal(length + c.size)).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("pr,pc", [(2, 1), (2, 2), (3, 2)])
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 2), st.sampled_from(_GRID_OPS), st.integers(1, 40)),
        min_size=1, max_size=30,
    )
)
@settings(
    max_examples=20, deadline=None,
    # The leak fixture brackets all of a test's examples, which is what it is for.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_any_order_of_collectives_across_a_grids_groups_matches_lockstep(pr, pc, ops):
    """Barrier tokens carry no group, epoch or round — only a count per pair
    of ranks — so what keeps them apart is the order of the program alone.
    Any interleaving of collectives on the world, row and column groups
    (pairs of ranks sharing several groups; three-member groups with their
    two dissemination rounds) must give lockstep's bytes on every rank."""
    via_process = run_spmd(pr * pc, _group_order_program, pr, pc, ops, backend="process")
    via_lockstep = run_spmd(pr * pc, _group_order_program, pr, pc, ops, backend="lockstep")
    assert via_process == via_lockstep


class TestSharedMemorySlots:
    def test_strided_contributions_are_deposited_as_their_values(self):
        """A non-contiguous array goes into the segment in one pass and comes
        out C-ordered with the same values (transposed, stepped, reversed)."""

        def program(comm):
            base = np.arange(24.0).reshape(4, 6) + 100 * comm.rank
            views = [base.T, base[::2, 1::2], base[::-1], np.asfortranarray(base)]
            gathered = [comm.allgather(v) for v in views]
            return [[part.tolist() for part in parts] for parts in gathered]

        results = run_spmd(2, program, backend="process")
        assert results == run_spmd(2, program, backend="lockstep")

    def test_slot_growth_beyond_initial_capacity(self):
        """A deposit larger than the shared segment grows it by generation."""

        def program(comm):
            big = np.full(50_000, float(comm.rank + 1))  # 400 kB > 64 kB slots
            return float(comm.allreduce(big)[0])

        backend = ProcessBackend(3, slot_bytes=1 << 16)
        assert backend.run(program) == [6.0, 6.0, 6.0]

    def test_no_shared_memory_leaked(self):
        before = _shm_segments()
        run_spmd(3, _collective_program, backend="process")
        assert _shm_segments() <= before


class TestWirePayloads:
    def test_no_slots_and_a_whole_fit_touches_no_shared_memory(self):
        """Nowhere to deposit is a fact of the group state (``slots is
        None``), and Algorithm 3 end to end — grid splits,
        every collective — never creates a shared-memory segment."""
        from repro.core.config import NMFConfig
        from repro.core.hpc_nmf import hpc_nmf

        A = np.abs(np.random.default_rng(0).standard_normal((24, 16)))
        before = _shm_segments()

        def program(comm):
            row = comm.split(color=comm.rank // 2)
            slotless = comm._state.slots is None and row._state.slots is None
            hpc_nmf(comm, A, NMFConfig(k=3, max_iters=2, seed=1))
            return slotless, _shm_segments() - before

        assert run_spmd(4, program, backend="socket") == [(True, set())] * 4

    def test_large_array_crosses_in_one_frame(self):
        def program(comm):
            big = np.full(300_000, float(comm.rank + 1))  # 2.4 MB per frame
            return float(comm.allreduce(big)[0])

        assert run_spmd(3, program, backend="socket") == [6.0, 6.0, 6.0]

    def test_timeouts_are_configurable(self):
        backend = SocketBackend(2, timeout=5.0, connect_timeout=2.5)
        assert backend.timeout == 5.0
        assert backend.connect_timeout == 2.5
        assert backend.run(lambda comm: comm.allreduce_scalar(1.0)) == [2.0, 2.0]
