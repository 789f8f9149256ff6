"""The mpi backend's registry contract, with and without mpi4py installed.

The module always imports and exposes ``MPI4PY_AVAILABLE``; when mpi4py
is absent the backend degrades to a
*reason-bearing* registry entry — ``available_backends()`` excludes it and
asking for it by name raises a :class:`CommunicatorError` that says what to
install and how to launch, instead of the unknown-backend typo message.

The real 4-rank wire run cannot happen inside pytest (ranks come from
``mpirun``, not fork); CI's mpi leg replays the byte-parity suite via
``mpirun -n 4 python tests/comm/mpi_parity_program.py``.
"""

import pytest

from repro.comm.backends import available_backends, get_backend_class
from repro.comm.backends.mpi import MPI4PY_AVAILABLE, MPIBackend
from repro.util.errors import CommunicatorError


class TestWithoutMpi4py:
    """Graceful degradation: proven for real on hosts without mpi4py."""

    @pytest.mark.skipif(MPI4PY_AVAILABLE, reason="mpi4py is installed")
    def test_mpi_is_not_listed_available(self):
        assert "mpi" not in available_backends()
        assert "socket" in available_backends()  # the wire fallback stays

    @pytest.mark.skipif(MPI4PY_AVAILABLE, reason="mpi4py is installed")
    def test_asking_for_mpi_names_the_missing_dependency(self):
        with pytest.raises(CommunicatorError, match="not available") as excinfo:
            get_backend_class("mpi")
        message = str(excinfo.value)
        assert "mpi4py" in message        # what to install
        assert "mpirun" in message        # how to launch once installed
        assert "lockstep" in message      # what works instead

    @pytest.mark.skipif(MPI4PY_AVAILABLE, reason="mpi4py is installed")
    def test_unavailable_is_not_the_typo_message(self):
        with pytest.raises(CommunicatorError) as excinfo:
            get_backend_class("mpi")
        assert "unknown backend" not in str(excinfo.value)


class TestWithMpi4py:
    """The CI mpi leg runs these with mpi4py really installed."""

    @pytest.mark.skipif(not MPI4PY_AVAILABLE, reason="mpi4py not installed")
    def test_mpi_is_registered(self):
        assert "mpi" in available_backends()
        assert get_backend_class("mpi") is MPIBackend

    @pytest.mark.skipif(not MPI4PY_AVAILABLE, reason="mpi4py not installed")
    def test_single_rank_runs_inline_under_one_process(self):
        # pytest itself is a 1-process MPI world; n_ranks=1 must work inline.
        assert MPIBackend(1).run(lambda comm: comm.allreduce_scalar(2.0)) == [2.0]

    @pytest.mark.skipif(not MPI4PY_AVAILABLE, reason="mpi4py not installed")
    def test_world_size_mismatch_explains_the_launch_command(self):
        from mpi4py import MPI

        if MPI.COMM_WORLD.Get_size() != 1:  # pragma: no cover - mpirun runs
            pytest.skip("already inside an mpirun world")
        with pytest.raises(CommunicatorError, match="mpirun -n 4"):
            MPIBackend(4).run(lambda comm: None)
