"""The mpi backend's row of the backend table, with and without mpi4py.

The module always imports and exposes ``MPI4PY_AVAILABLE``, which the table
reads when ``"mpi"`` is looked up; when mpi4py is absent
``available_backends()`` excludes it and asking for it by name raises a
:class:`CommunicatorError` that says what to install and how to launch,
instead of the unknown-backend typo message.

The real 4-rank wire run cannot happen inside pytest (ranks come from
``mpirun``, not fork); CI's mpi leg replays the byte-parity suite via
``mpirun -n 4 python tests/comm/mpi_parity_program.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

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


def test_availability_is_read_when_the_name_is_looked_up(tmp_path):
    """A stub ``mpi4py`` on a fresh interpreter's path makes ``mpi`` available
    there: nothing about it is fixed before the name is looked up."""
    (tmp_path / "mpi4py").mkdir()
    (tmp_path / "mpi4py" / "__init__.py").write_text("MPI = None\n")
    src = str(Path(repro.__file__).resolve().parents[1])
    program = (
        "from repro.comm.backends import available_backends, get_backend_class\n"
        "print(available_backends(), get_backend_class('mpi').__name__)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), src]))
    done = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "['lockstep',", "'mpi',", "'process',", "'socket',", "'thread']", "MPIBackend"
    ]
