"""Unit tests for processor grids and the grid-selection rule of §5."""

import numpy as np
import pytest

from repro.comm import ProcessGrid, choose_grid, run_spmd
from repro.comm.grid import GridShape, factor_pairs
from repro.util.errors import CommunicatorError


class TestChooseGrid:
    def test_square_matrix_square_process_count(self):
        assert choose_grid(1000, 1000, 16) == (4, 4)

    def test_tall_skinny_uses_1d_grid(self):
        # m/p > n forces pr = p, pc = 1 (the Video regime).
        assert choose_grid(1_013_400, 2_400, 216) == (216, 1)

    def test_wide_matrix_uses_1d_column_grid(self):
        assert choose_grid(2_400, 1_013_400, 216) == (1, 216)

    def test_rectangular_prefers_proportional_grid(self):
        # m:n = 3:1, p = 12 -> the best grid keeps m/pr ~= n/pc: (6, 2).
        assert choose_grid(3000, 1000, 12) == (6, 2)

    def test_paper_dsyn_grid_is_squarish(self):
        pr, pc = choose_grid(172_800, 115_200, 600)
        assert pr * pc == 600
        # m/pr and n/pc should be within a factor ~2 of each other.
        ratio = (172_800 / pr) / (115_200 / pc)
        assert 0.5 <= ratio <= 2.0

    def test_single_process(self):
        assert choose_grid(50, 40, 1) == (1, 1)

    def test_invalid_inputs(self):
        with pytest.raises(CommunicatorError):
            choose_grid(10, 10, 0)
        with pytest.raises(CommunicatorError):
            choose_grid(0, 10, 2)

    def test_factor_pairs_cover_all_divisors(self):
        assert factor_pairs(12) == [(1, 12), (2, 6), (3, 4), (4, 3), (6, 2), (12, 1)]


class TestGridShape:
    def test_coords_roundtrip(self):
        shape = GridShape(3, 4)
        row_major = [(i, j) for i in range(3) for j in range(4)]
        assert [shape.coords(rank) for rank in range(12)] == row_major

    def test_out_of_range(self):
        shape = GridShape(2, 2)
        with pytest.raises(CommunicatorError):
            shape.coords(4)
        with pytest.raises(CommunicatorError):
            shape.coords(-1)


class TestProcessGrid:
    @pytest.mark.parametrize("pr,pc", [(2, 3), (3, 2), (1, 4), (4, 1), (2, 2)])
    def test_row_and_column_communicators(self, pr, pc):
        def program(comm):
            grid = ProcessGrid(comm, pr, pc)
            assert grid.shape.size == pr * pc
            assert grid.row_comm.size == pc
            assert grid.col_comm.size == pr
            i, j = grid.coords
            assert comm.rank == i * pc + j
            assert grid.row_comm.rank == j
            assert grid.col_comm.rank == i
            # Row communicator sees exactly the ranks of this grid row.
            gathered = grid.row_comm.allgatherv(np.array([float(comm.rank)]))
            assert [int(g) for g in gathered] == [i * pc + jj for jj in range(pc)]
            return True

        assert all(run_spmd(pr * pc, program))

    def test_size_mismatch_raises(self):
        def program(comm):
            with pytest.raises(CommunicatorError):
                ProcessGrid(comm, 2, 3)
            return True

        assert all(run_spmd(4, program))
