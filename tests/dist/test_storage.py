"""Where a rank's block of ``A`` lives follows the input, with identical bytes.

The one block cut (``cut_block``: Algorithm 3's ``DistMatrix2D.from_global``
and Algorithm 2's row and column blocks) copies a dense block cut from a
file-backed ``A`` (an ``np.memmap``, such as ``np.load(path, mmap_mode="r")``, or a view
of one) onto an ``np.memmap`` over an unlinked temporary file, so an ``A``
larger than RAM streams through the never-materialize-``A`` loop block by
block.  Every other block (in-memory dense, sparse, zero-size) is held in
memory.  The contract: the choice is *transparent* — the same blocks, the
same factors, error history and ledger, byte for byte.
"""

import hashlib
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro.comm.backends import run_spmd
from repro.comm.grid import ProcessGrid
from repro.core.api import fit
from repro.data.lowrank import planted_lowrank
import repro.core.naive as naive_mod
from repro.dist.distmatrix import DistMatrix2D


@pytest.fixture(autouse=True)
def _silence_oversubscription():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def _on_disk(tmp_path, A, name="A.npy"):
    """``A`` saved and loaded back as a read-only ``np.memmap``."""
    path = tmp_path / name
    np.save(path, A)
    return np.load(path, mmap_mode="r")


def _blocks(A, p, pr, pc):
    """Every rank's ``DistMatrix2D.from_global`` block of ``A`` on ``thread``."""

    def program(comm):
        return DistMatrix2D.from_global(ProcessGrid(comm, pr, pc), A).block

    return run_spmd(p, program, backend="thread")


class TestBlocksFollowTheInput:
    @pytest.mark.parametrize("p,pr,pc", [(1, 1, 1), (4, 2, 2)])
    def test_memmapped_dense_input_gives_memmap_blocks(self, tmp_path, p, pr, pc):
        A = np.random.default_rng(3).random((23, 17))
        in_memory = _blocks(A, p, pr, pc)
        mapped = _on_disk(tmp_path, A)
        # check_matrix's np.asarray drops the subclass; the map stays on .base.
        for file_backed in (mapped, np.asarray(mapped)):
            for on_disk, resident in zip(_blocks(file_backed, p, pr, pc), in_memory):
                assert isinstance(on_disk, np.memmap)
                assert on_disk.flags.c_contiguous and on_disk.dtype == resident.dtype
                assert on_disk.tobytes() == resident.tobytes()

    @pytest.mark.parametrize("layout,file_backed", [
        (np.ascontiguousarray, True),
        (np.asfortranarray, False),
        (lambda A: A.astype(np.float32), False),
    ], ids=["c-float64", "fortran", "float32"])
    def test_blocks_a_fit_slices_follow_the_checked_input(
        self, tmp_path, monkeypatch, layout, file_backed
    ):
        """Through ``fit``: its ``check_matrix`` keeps a C-ordered float64 map
        as a view, but copies an F-ordered or float32 one into memory before
        any rank slices it, so only the first gives memmap blocks.  The
        factors are the in-memory fit's either way."""
        A = layout(planted_lowrank(23, 17, 3, seed=4, noise_std=0.05))
        sliced = {}
        from_global = DistMatrix2D.from_global

        def spy(grid, A):
            data = from_global(grid, A)
            sliced[data.row_range, data.col_range] = data.block
            return data

        kwargs = dict(variant="hpc2d", backend="thread", n_ranks=4, max_iters=3, seed=9)
        monkeypatch.setattr(DistMatrix2D, "from_global", spy)
        on_disk = fit(_on_disk(tmp_path, A), 3, **kwargs)
        mapped_blocks, sliced = sliced, {}
        in_memory = fit(np.ascontiguousarray(A, dtype=np.float64), 3, **kwargs)
        assert len(mapped_blocks) == 4 and mapped_blocks.keys() == sliced.keys()
        for ranges, block in mapped_blocks.items():
            assert isinstance(block, np.memmap) == file_backed
            assert block.flags.c_contiguous
            assert block.tobytes() == sliced[ranges].tobytes()
        assert _signature(on_disk) == _signature(in_memory)

    def test_strided_view_of_a_memmap_is_file_backed(self, tmp_path):
        A = np.random.default_rng(5).random((23, 17))
        view = _on_disk(tmp_path, A)[1:, ::2]
        for on_disk, resident in zip(_blocks(view, 4, 2, 2), _blocks(A[1:, ::2], 4, 2, 2)):
            assert isinstance(on_disk, np.memmap)
            assert on_disk.tobytes() == resident.tobytes()

    def test_algorithm2_blocks_of_a_memmapped_input_are_memmaps(self, tmp_path, monkeypatch):
        """Naive cuts its row and column blocks with the same function, so
        both follow a memmapped input onto file-backed storage."""
        A = np.random.default_rng(6).random((23, 17))
        cuts = []
        real = naive_mod.cut_block

        def spy(A_, row_range, col_range):
            block = real(A_, row_range, col_range)
            cuts.append((row_range, col_range, block))
            return block

        monkeypatch.setattr(naive_mod, "cut_block", spy)
        fit(_on_disk(tmp_path, A), 3, variant="naive", backend="thread", n_ranks=3,
            max_iters=1, seed=9)
        assert len(cuts) == 6
        for (r0, r1), (c0, c1), block in cuts:
            assert isinstance(block, np.memmap)
            assert block.tobytes() == np.ascontiguousarray(A[r0:r1, c0:c1]).tobytes()

    def test_in_memory_dense_blocks_are_not_memmaps(self):
        A = np.random.default_rng(3).random((23, 17))
        assert not any(isinstance(b, np.memmap) for b in _blocks(A, 4, 2, 2))

    def test_sparse_blocks_are_not_memmaps(self):
        A = sp.random(23, 17, density=0.3, random_state=0, format="csr")
        assert all(sp.issparse(b) for b in _blocks(A, 4, 2, 2))

    def test_zero_size_blocks_stay_in_memory(self, tmp_path):
        # More ranks than rows gives some ranks an empty block; it holds
        # nothing to page (and older numpy cannot map zero bytes), so it stays
        # an ordinary array.
        blocks = _blocks(_on_disk(tmp_path, np.ones((2, 6))), 4, 4, 1)
        assert [b.shape for b in blocks] == [(1, 6), (1, 6), (0, 6), (0, 6)]
        assert [isinstance(b, np.memmap) for b in blocks] == [True, True, False, False]

    def test_memmap_blocks_stay_writable(self, tmp_path):
        A = _on_disk(tmp_path, np.zeros((4, 4)))
        (block,) = _blocks(A, 1, 1, 1)
        block[0, 0] = 7.0  # solvers may scribble on local views
        assert block[0, 0] == 7.0 and A[0, 0] == 0.0


def _signature(result):
    """sha256(``W‖H``), the error history (not its wall-clock) and the ledger."""
    digest = hashlib.sha256(result.W.tobytes() + result.H.tobytes()).hexdigest()
    history = [(s.iteration, s.objective, s.relative_error) for s in result.history]
    return digest, history, result.ledger_summary


class TestEndToEndParity:
    @pytest.mark.parametrize("cell", [
        dict(variant="sequential"),
        dict(variant="hpc2d", backend="thread", n_ranks=4),
        dict(variant="hpc2d", backend="process", n_ranks=4),
        dict(variant="hpc2d", backend="socket", n_ranks=2),
        dict(variant="naive", backend="thread", n_ranks=3),
        dict(variant="naive", backend="process", n_ranks=3),
    ], ids=["sequential", "thread-p4", "process-p4", "socket-p2", "naive-thread-p3",
            "naive-process-p3"])
    def test_memmapped_dense_input_fits_the_same_bytes(self, tmp_path, cell):
        """The out-of-core pin: a fit reads the same bytes whether ``A`` is
        resident or memmapped — in process, on shared memory and over the
        wire."""
        A = planted_lowrank(32, 24, 3, seed=5, noise_std=0.05)
        kwargs = dict(max_iters=4, seed=9, **cell)
        in_memory = fit(A, 3, **kwargs)
        on_disk = fit(_on_disk(tmp_path, A), 3, **kwargs)
        assert _signature(on_disk) == _signature(in_memory)

    @pytest.mark.parametrize("p", [2, 3, 5, 6])
    @pytest.mark.parametrize("backend", ["lockstep", "thread"])
    @pytest.mark.parametrize("variant", ["hpc2d", "hpc1d", "naive"])
    def test_memmapped_input_fits_the_same_bytes_on_every_grid(
        self, tmp_path, variant, backend, p
    ):
        """Even and ragged grids (p = 5 is a 1D grid), Algorithm 2 included."""
        A = planted_lowrank(23, 17, 3, seed=6, noise_std=0.05)
        kwargs = dict(variant=variant, backend=backend, n_ranks=p, max_iters=3, seed=9)
        on_disk = fit(_on_disk(tmp_path, A), 3, **kwargs)
        assert _signature(on_disk) == _signature(fit(A, 3, **kwargs))

    def test_memmapped_input_with_more_ranks_than_rows_fits_the_same_bytes(self, tmp_path):
        # Ranks 3 and 4 of the 5 x 1 grid own no rows: their blocks stay in memory.
        A = planted_lowrank(3, 10, 2, seed=7, noise_std=0.05)
        kwargs = dict(variant="hpc2d", n_ranks=5, grid=(5, 1), max_iters=3, seed=9)
        on_disk = fit(_on_disk(tmp_path, A), 2, **kwargs)
        assert _signature(on_disk) == _signature(fit(A, 2, **kwargs))

    def test_sparse_input_over_memmapped_arrays_fits_the_same_bytes(self, tmp_path):
        A = sp.random(32, 24, density=0.2, random_state=5, format="csr")
        mapped = sp.csr_matrix(
            (_on_disk(tmp_path, A.data, "data.npy"),
             _on_disk(tmp_path, A.indices, "indices.npy"),
             _on_disk(tmp_path, A.indptr, "indptr.npy")),
            shape=A.shape,
        )
        kwargs = dict(variant="hpc2d", n_ranks=4, max_iters=3, seed=9)
        assert _signature(fit(mapped, 3, **kwargs)) == _signature(fit(A, 3, **kwargs))
