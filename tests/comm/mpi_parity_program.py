"""Byte-parity of the mpi backend, replayed under a real ``mpirun`` world.

CI's wire-backends mpi leg launches this as::

    PYTHONPATH=src mpirun -n 4 --oversubscribe python tests/comm/mpi_parity_program.py

Every MPI process runs the whole script: the mpi-backend fits use this
process's own rank inside the shared MPI world, while the thread-backend
references are recomputed identically in each process (small matrices, cheap
by design).  The contract is the same one the in-process backends pin in
``tests/core/test_backend_parity.py`` — for a fixed seed, every backend's
factors are *byte-identical*, because reductions gather contributions and
combine them in rank order rather than trusting the transport's reduction
tree.  A mismatch raises, the process exits nonzero, and mpirun fails the CI
step.
"""

import sys
import warnings

import numpy as np
import scipy.sparse as sp
from mpi4py import MPI

from repro.core.api import fit
from repro.data.lowrank import planted_lowrank


def main() -> int:
    world = MPI.COMM_WORLD
    p = world.Get_size()
    if p < 2:
        print("run me under mpirun with at least 2 ranks", file=sys.stderr)
        return 2

    dense = planted_lowrank(32, 24, 3, seed=5, noise_std=0.05)
    sparse = sp.random(32, 24, density=0.2, random_state=5, format="csr")
    checked = 0
    with warnings.catch_warnings():
        # p ranks of threads inside each MPI process oversubscribe any host.
        warnings.simplefilter("ignore", RuntimeWarning)
        for variant in ("naive", "hpc1d", "hpc2d"):
            for label, A in (("dense", dense), ("sparse", sparse)):
                kwargs = dict(n_ranks=p, variant=variant, max_iters=4, seed=9)
                via_mpi = fit(A, 3, backend="mpi", **kwargs)
                via_thread = fit(A, 3, backend="thread", **kwargs)
                assert via_mpi.W.tobytes() == via_thread.W.tobytes(), (
                    f"{variant}/{label}: W bytes diverge over MPI"
                )
                assert via_mpi.H.tobytes() == via_thread.H.tobytes(), (
                    f"{variant}/{label}: H bytes diverge over MPI"
                )
                assert via_mpi.grid_shape == via_thread.grid_shape
                np.testing.assert_array_equal(
                    via_mpi.relative_error_history,
                    via_thread.relative_error_history,
                )
                checked += 1
        # ``overlap`` is accepted and inert (every handle completes at issue).
        off = fit(dense, 3, variant="hpc2d", n_ranks=p, backend="mpi",
                  max_iters=4, seed=9, overlap=False)
        on = fit(dense, 3, variant="hpc2d", n_ranks=p, backend="mpi",
                 max_iters=4, seed=9, overlap=True)
        assert off.W.tobytes() == on.W.tobytes()
        assert off.H.tobytes() == on.H.tobytes()
        checked += 1

    if world.Get_rank() == 0:
        print(f"mpi parity OK: {checked} configurations byte-identical "
              f"across mpi and thread backends at p={p}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
