"""Reusable collective workspaces and the ``out=`` receive-buffer paths."""

import numpy as np
import pytest

from repro.comm import CollectiveWorkspace, run_spmd
from repro.comm.communicator import rank_order_sum
from repro.util.errors import CommunicatorError


class TestCollectiveWorkspace:
    def test_same_name_returns_same_buffer(self):
        ws = CollectiveWorkspace()
        a = ws.get("gram", (3, 3))
        b = ws.get("gram", (3, 3))
        assert a is b

    def test_distinct_names_never_alias(self):
        ws = CollectiveWorkspace()
        assert ws.get("gram_w", (3, 3)) is not ws.get("gram_h", (3, 3))

    def test_reallocates_on_shape_or_dtype_change(self):
        ws = CollectiveWorkspace()
        a = ws.get("buf", (2, 2))
        b = ws.get("buf", (4, 2))
        assert a is not b and b.shape == (4, 2)
        c = ws.get("buf", (4, 2), dtype=np.float32)
        assert c is not b and c.dtype == np.float32

    def test_scalar_shape(self):
        ws = CollectiveWorkspace()
        assert ws.get("v", 5).shape == (5,)


class TestOutBuffers:
    @pytest.mark.parametrize("p", [1, 3, 4])
    def test_allreduce_out_is_returned_and_reused(self, p):
        def program(comm):
            ws = comm.workspace
            out = ws.get("sum", (2, 2))
            local = np.full((2, 2), float(comm.rank + 1))
            first = comm.allreduce(local, out=out)
            doubled = 2 * local
            second = comm.allreduce(doubled, out=out)
            # A size-1 communicator hands back its input and leaves out alone.
            want1, want2 = (out, out) if comm.size > 1 else (local, doubled)
            return first is want1, second is want2, second.copy()

        expected = 2 * sum(float(r + 1) for r in range(p))
        for was_out1, was_out2, final in run_spmd(p, program, backend="lockstep"):
            assert was_out1 and was_out2
            np.testing.assert_allclose(final, np.full((2, 2), expected))

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_allgatherv_out_matches_plain(self, p):
        def program(comm):
            local = np.arange(2.0 * (comm.rank + 1)).reshape(comm.rank + 1, 2)
            plain = comm.allgatherv(local, axis=0)
            out = comm.workspace.get("gathered", plain.shape)
            buffered = comm.allgatherv(local, axis=0, out=out)
            return buffered is (out if comm.size > 1 else local), np.array_equal(plain, buffered)

        for was_out, equal in run_spmd(p, program, backend="lockstep"):
            assert was_out and equal

    @pytest.mark.parametrize("p", [1, 4])
    def test_reduce_scatter_out_matches_plain(self, p):
        def program(comm):
            rng = np.random.default_rng(comm.rank)
            local = rng.random((p * 2, 3))
            plain = comm.reduce_scatter(local)
            out = comm.workspace.get("piece", plain.shape)
            buffered = comm.reduce_scatter(local, out=out)
            return buffered is (out if comm.size > 1 else local), np.allclose(plain, buffered)

        for was_out, close in run_spmd(p, program, backend="lockstep"):
            assert was_out and close

    def test_out_aliasing_input_rejected(self):
        # The guard fires before any deposit/barrier, so every rank raises
        # symmetrically and no rank is left blocked.
        def program(comm):
            local = np.ones((2, 2))
            with pytest.raises(CommunicatorError, match="share memory"):
                comm.allreduce(local, out=local)
            big = np.ones((4, 2))
            with pytest.raises(CommunicatorError, match="share memory"):
                comm.reduce_scatter(big, out=big[:2])
            return True

        assert all(run_spmd(2, program, backend="lockstep"))

    def test_combine_out_shape_checked(self):
        with pytest.raises(CommunicatorError, match="shape"):
            rank_order_sum([np.ones((2, 2))], out=np.empty((3, 3)))

    @pytest.mark.parametrize("p", [1, 2])
    def test_lossy_out_dtype_rejected_at_any_size(self, p):
        """p=1 fast paths must enforce the same safe-cast rule as p>1."""

        def program(comm):
            bad = np.empty((2, 2), dtype=np.float32)
            for call in (
                lambda: comm.allreduce(np.ones((2, 2)), out=bad),
                lambda: comm.reduce_scatter(np.ones((2 * comm.size, 2)),
                                            out=np.empty((2, 2), dtype=np.float32)),
                lambda: comm.allgatherv(np.ones((2, 2)),
                                        out=np.empty((2 * comm.size, 2),
                                                     dtype=np.float32)),
            ):
                with pytest.raises(CommunicatorError, match="dtype"):
                    call()
            return True

        assert all(run_spmd(p, program, backend="lockstep"))

    def test_combine_out_lossy_dtype_rejected(self):
        with pytest.raises(CommunicatorError, match="dtype"):
            rank_order_sum(
                [np.ones((2, 2))], out=np.empty((2, 2), dtype=np.float32)
            )
        # Widening casts are fine (int contributions into a float buffer).
        out = np.empty((2,), dtype=np.float64)
        result = rank_order_sum([np.array([1, 2]), np.array([3, 4])], out=out)
        assert result is out
        np.testing.assert_array_equal(out, [4.0, 6.0])

    @pytest.mark.filterwarnings("ignore:.*oversubscribe.*:RuntimeWarning")  # 3 forked ranks
    @pytest.mark.parametrize("p", [1, 3])
    def test_allgatherv_wrong_shape_out_rejected(self, p):
        """One ``out=`` contract on every movement, called directly or for a handle."""

        def program(comm, through_handle):
            call = comm.iallgatherv if through_handle else comm.allgatherv
            done = (lambda handle: handle.wait()) if through_handle else (lambda result: result)
            local = np.ones((2, 3))
            # Wrong rank or non-axis dimension: rejected before any byte moves,
            # with the same message everywhere.
            for bad in (np.empty((2 * comm.size, 4)), np.empty((2 * comm.size, 3, 1))):
                with pytest.raises(CommunicatorError, match="incompatible with gathered blocks"):
                    call(local, axis=0, out=bad)
            # Wrong axis length: raised as CommunicatorError, not a raw
            # numpy error, and the communicator stays usable.
            with pytest.raises(CommunicatorError, match="shape"):
                done(call(local, axis=0, out=np.empty((2 * comm.size + 1, 3))))
            gathered = done(call(local, axis=0))
            return gathered.shape == (2 * comm.size, 3)

        for backend in ("thread", "lockstep", "socket"):
            for through_handle in (False, True):
                assert all(run_spmd(p, program, through_handle, backend=backend))

    @pytest.mark.parametrize("backend", ["thread", "lockstep"])
    def test_bad_out_on_subcommunicator_errors_instead_of_hanging(self, backend):
        """A mid-collective failure must reach the closing barrier so peers on
        the sub-communicator are released rather than blocked forever."""

        def program(comm):
            sub = comm.split(color=0)
            bad = np.empty((2 * sub.size, 2), dtype=np.float32)  # lossy dtype
            with pytest.raises(CommunicatorError, match="dtype"):
                sub.allgatherv(np.ones((2, 2)), out=bad)
            # The sub-communicator must still be usable afterwards.
            total = sub.allreduce(np.ones(2))
            return float(total[0])

        results = run_spmd(3, program, backend=backend)
        assert results == [3.0, 3.0, 3.0]

    def test_workspace_is_per_communicator(self):
        def program(comm):
            sub = comm.split(color=0)
            return comm.workspace is not sub.workspace

        assert all(run_spmd(2, program, backend="lockstep"))
