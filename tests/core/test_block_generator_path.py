"""Tests for the scalable construction path of HPC-NMF (no global matrix anywhere).

The paper generates its synthetic data per process ("every process will have
its own prime seed ... to generate the input random matrix"); the
``block_generator`` path of :func:`repro.core.hpc_nmf.hpc_nmf` reproduces
that: each rank builds only its own ``A_ij`` and the global matrix never
exists.  These tests check that the path produces valid factorizations and
that, when the generator is defined to slice a (deterministic) virtual global
matrix, it matches the from-global path exactly.
"""

import numpy as np
import pytest

from repro.comm.backends import run_spmd
from repro.core.config import NMFConfig
from repro.core.hpc_nmf import hpc_nmf
from repro.core.spmd_loop import assemble_result
from repro.data.synthetic import dense_synthetic, dense_synthetic_block, sparse_synthetic_block
from repro.util.errors import CommunicatorError, PartitionError


def test_generator_slicing_virtual_matrix_matches_from_global():
    m, n, k, p = 40, 32, 3, 4
    A = dense_synthetic(m, n, seed=3)
    cfg = NMFConfig(k=k, max_iters=4, seed=9)

    def sliced_generator(row_range, col_range, rank):
        return A[row_range[0]:row_range[1], col_range[0]:col_range[1]]

    per_rank_global = run_spmd(p, hpc_nmf, A, cfg)
    per_rank_generated = run_spmd(
        p, hpc_nmf, None, cfg, block_generator=sliced_generator, global_shape=(m, n)
    )
    res_global = assemble_result(per_rank_global, cfg)
    res_generated = assemble_result(per_rank_generated, cfg)
    np.testing.assert_allclose(res_generated.W, res_global.W, rtol=1e-12)
    np.testing.assert_allclose(res_generated.H, res_global.H, rtol=1e-12)


def test_per_rank_random_generation_produces_valid_factorization():
    m, n, k, p = 48, 36, 3, 4
    cfg = NMFConfig(k=k, max_iters=5, seed=2)

    def generator(row_range, col_range, rank):
        return dense_synthetic_block(row_range, col_range, rank, seed=7)

    per_rank = run_spmd(p, hpc_nmf, None, cfg, block_generator=generator, global_shape=(m, n))
    result = assemble_result(per_rank, cfg)
    assert result.W.shape == (m, k)
    assert np.all(result.W >= 0) and np.all(result.H >= 0)
    history = result.relative_error_history
    assert history[-1] <= history[0] + 1e-12


def test_sparse_per_rank_generation():
    m, n, k, p = 80, 60, 3, 4
    cfg = NMFConfig(k=k, max_iters=3, seed=4)

    def generator(row_range, col_range, rank):
        return sparse_synthetic_block(row_range, col_range, rank, density=0.1, seed=5)

    per_rank = run_spmd(p, hpc_nmf, None, cfg, block_generator=generator, global_shape=(m, n))
    result = assemble_result(per_rank, cfg)
    assert result.relative_error <= 1.0


def test_missing_generator_or_shape_rejected():
    cfg = NMFConfig(k=2, max_iters=1)

    def program(comm):
        with pytest.raises(CommunicatorError):
            hpc_nmf(comm, None, cfg)
        return True

    assert all(run_spmd(2, program))


def test_assemble_result_refuses_blocks_that_do_not_tile_the_factors():
    """``assemble_result`` fills ``np.empty`` arrays, so a gap or an overlap in
    the ranks' ranges is a named error, never uninitialised (or zero) rows."""
    m, n, k, p = 40, 32, 3, 4
    cfg = NMFConfig(k=k, max_iters=1, seed=9)
    per_rank = run_spmd(p, hpc_nmf, dense_synthetic(m, n, seed=3), cfg)
    assert assemble_result(per_rank, cfg).W.shape == (m, k)

    lo, hi = per_rank[1]["w_range"]
    gap = [dict(e) for e in per_rank]
    gap[1].update(w_range=(lo + 1, hi), W_local=per_rank[1]["W_local"][1:])
    with pytest.raises(PartitionError, match=r"w_range blocks .* do not tile \[0, 40\)"):
        assemble_result(gap, cfg)

    short = [dict(e) for e in per_rank[:-1]]
    with pytest.raises(PartitionError, match="do not tile"):
        assemble_result(short, cfg)

    lo, hi = per_rank[2]["h_range"]
    overlap = [dict(e) for e in per_rank]
    overlap[2].update(h_range=(lo - 1, hi))
    with pytest.raises(PartitionError, match=r"h_range blocks .* do not tile \[0, 32\)"):
        assemble_result(overlap, cfg)
