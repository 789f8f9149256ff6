"""The communication the algorithms actually perform must match the paper's analysis.

§4.3: Naive communicates (m + n)·k words per iteration in two all-gathers.
§5:   HPC-NMF communicates 2k² words of all-reduce plus
      ((pr−1)·nk/p + (pc−1)·mk/p) words in each of the all-gather and
      reduce-scatter pairs.

The communicator's CostLedger records the (p-1)/p·n critical-path volume of
every collective; these tests check the recorded totals against the closed
forms, which is precisely the claim of Table 2.
"""

import numpy as np
import pytest

from repro.comm.grid import choose_grid, factor_pairs
from repro.core.api import fit
from repro.data.synthetic import dense_synthetic


def run_and_get_ledger(A, k, p, algorithm, grid=None, iters=2):
    res = fit(
        A,
        k,
        n_ranks=p,
        variant=algorithm,
        grid=grid,
        max_iters=iters,
        seed=3,
        compute_error=False,  # keep only the algorithm's own collectives
    )
    return res, res.ledger_summary


class TestNaiveVolume:
    def test_allgather_words_match_formula(self):
        m, n, k, p, iters = 48, 36, 4, 4, 3
        A = dense_synthetic(m, n, seed=0)
        res, ledger = run_and_get_ledger(A, k, p, "naive", iters=iters)
        # Two all-gathers per iteration: H (n·k words) and W (m·k words).
        expected = iters * ((p - 1) / p) * (m * k + n * k)
        assert ledger["all_gather"]["words"] == pytest.approx(expected, rel=1e-12)
        assert "reduce_scatter" not in ledger

    def test_volume_independent_of_sparsity(self):
        import scipy.sparse as sp

        m, n, k, p = 60, 40, 3, 4
        dense = dense_synthetic(m, n, seed=1)
        sparse = sp.random(m, n, density=0.05, random_state=1, format="csr")
        _, ledger_dense = run_and_get_ledger(dense, k, p, "naive")
        _, ledger_sparse = run_and_get_ledger(sparse, k, p, "naive")
        assert ledger_dense["all_gather"]["words"] == pytest.approx(
            ledger_sparse["all_gather"]["words"]
        )


class TestHPCVolume:
    @pytest.mark.parametrize("grid", [(2, 2), (4, 1), (1, 4)])
    def test_collective_words_match_section5_formulas(self, grid):
        m, n, k, p, iters = 48, 36, 4, 4, 2
        pr, pc = grid
        A = dense_synthetic(m, n, seed=0)
        res, ledger = run_and_get_ledger(A, k, p, "hpc2d", grid=grid, iters=iters)

        # All-reduce: two k×k Gram matrices per iteration over all p ranks;
        # the ledger counts 2·(p-1)/p·n words per all-reduce (send + receive).
        expected_allreduce = iters * 2 * (2 * (p - 1) / p * k * k)
        assert ledger["all_reduce"]["words"] == pytest.approx(expected_allreduce, rel=1e-12)

        # All-gathers: H_j over proc columns (pr ranks, total n·k/pc words) and
        # W_i over proc rows (pc ranks, total m·k/pr words).
        expected_allgather = iters * (
            ((pr - 1) / pr) * (n * k / pc) + ((pc - 1) / pc) * (m * k / pr)
        )
        got_allgather = ledger.get("all_gather", {"words": 0.0})["words"]
        assert got_allgather == pytest.approx(expected_allgather, rel=1e-12)

        # Reduce-scatters mirror the all-gathers with the roles of dimensions swapped.
        expected_rs = iters * (
            ((pc - 1) / pc) * (m * k / pr) + ((pr - 1) / pr) * (n * k / pc)
        )
        got_rs = ledger.get("reduce_scatter", {"words": 0.0})["words"]
        assert got_rs == pytest.approx(expected_rs, rel=1e-12)

    def test_2d_grid_moves_fewer_words_than_naive_and_1d(self):
        # The headline claim: on a squarish matrix the 2D grid communicates
        # less than both the naive algorithm and the 1D grid.
        m, n, k, p = 64, 48, 4, 4
        A = dense_synthetic(m, n, seed=2)
        _, naive = run_and_get_ledger(A, k, p, "naive")
        _, hpc1d = run_and_get_ledger(A, k, p, "hpc2d", grid=(p, 1))
        _, hpc2d = run_and_get_ledger(A, k, p, "hpc2d", grid=(2, 2))

        def total_words(ledger):
            return sum(entry["words"] for entry in ledger.values())

        assert total_words(hpc2d) < total_words(naive)
        assert total_words(hpc2d) < total_words(hpc1d)

    def test_section5_rule_picks_a_volume_minimising_grid(self):
        # Table 3's grid experiment in words: of every factorization of p, the
        # grid choose_grid selects moves (one of) the fewest ledger words.
        m, n, k, p = 288, 192, 8, 8
        A = dense_synthetic(m, n, seed=2)
        volumes = {}
        for grid in factor_pairs(p):
            _, ledger = run_and_get_ledger(A, k, p, "hpc2d", grid=grid)
            volumes[grid] = sum(entry["words"] for entry in ledger.values())
        assert volumes[choose_grid(m, n, p)] <= min(volumes.values()) * 1.01

    def test_message_counts_logarithmic(self):
        m, n, k, p = 48, 36, 3, 4
        A = dense_synthetic(m, n, seed=3)
        _, ledger = run_and_get_ledger(A, k, p, "hpc2d", grid=(2, 2), iters=1)
        total_messages = sum(entry["messages"] for entry in ledger.values())
        # 2 all-reduce (2 log p each) + 2 all-gather (log 2) + 2 reduce-scatter (log 2)
        expected = 2 * 2 * np.log2(p) + 2 * np.log2(2) + 2 * np.log2(2)
        assert total_messages == pytest.approx(expected, rel=1e-12)
