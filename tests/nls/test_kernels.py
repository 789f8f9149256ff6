"""The BPP kernels registry: resolution rules, byte parity, flop accounting.

The contract under test (see docs/ARCHITECTURE.md "Kernels registry"):

* ``scalar`` and ``batched`` are *byte-identical* — same factor bytes, same
  pivot counters — because both factorize with ``np.linalg.cholesky`` and
  solve through one element-wise, per-column-independent substitution
  primitive (``tests/nls/test_stacked_solve.py`` pins the engine itself);
* ``"auto"`` is a plain alias of the default, so it keeps that contract on
  every host;
* every kernel tallies its Cholesky/triangular-solve flops into
  ``state.extra``, and ``bpp_flops_estimate`` stays a sane envelope of the
  measured counts.
"""

import numpy as np
import pytest

from repro.nls import (
    available_kernels,
    available_solvers,
    make_kernel,
    make_solver,
    resolve_kernel,
)
from repro.nls.bpp import BlockPrincipalPivoting, bpp_flops_estimate
from repro.nls.kernels import (
    DEFAULT_KERNEL,
    NLSKernel,
    cholesky_flops,
    triangular_solve_flops,
)
from repro.util.errors import SolverError


def _problem(k, c, seed=0, rows=None):
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((rows or 3 * k, k))
    B = rng.standard_normal((rows or 3 * k, c))
    return C.T @ C, C.T @ B


class TestRegistry:
    def test_all_kernels_registered(self):
        assert available_kernels() == ["batched", "scalar"]

    def test_every_kernel_resolves_to_itself(self):
        for name in available_kernels():
            assert resolve_kernel(name) == resolve_kernel(name.upper()) == name
            assert make_kernel(name).name == name

    def test_resolve_default_is_batched(self):
        assert resolve_kernel(None) == DEFAULT_KERNEL == "batched"

    def test_resolve_auto_is_the_default(self):
        assert resolve_kernel("auto") == resolve_kernel(None) == "batched"
        assert type(make_kernel("auto")) is type(make_kernel(None))

    def test_every_kernel_runs_the_one_pivot_loop(self):
        # The kernels differ only in how they exchange indices and solve the
        # column groups; the pivot loop itself is NLSKernel's.
        for name in available_kernels():
            cls = type(make_kernel(name))
            assert cls.solve is NLSKernel.solve
            assert {"_exchange", "_solve_groups"} <= set(vars(cls))

    def test_unknown_kernel_raises(self):
        with pytest.raises(SolverError, match=r"unknown.*\['batched', 'scalar'\]"):
            resolve_kernel("typo")
        with pytest.raises(SolverError):
            make_kernel("typo")

    def test_solver_constructors_accept_kernel(self):
        # The kernel is BPP's own argument; the element-wise solvers have none.
        for name in available_kernels():
            assert make_solver("bpp", kernel=name).kernel.name == name
        assert type(make_solver("bpp", kernel="auto").kernel) is type(make_kernel(None))
        for name in sorted(set(available_solvers()) - {"bpp"}):
            with pytest.raises(TypeError, match="kernel"):
                make_solver(name, kernel="batched")


class TestByteParity:
    """scalar vs batched: one solver call, identical bytes and counters."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k,c", [(3, 1), (8, 40), (12, 200)])
    def test_cold_start(self, k, c, seed):
        gram, rhs = _problem(k, c, seed)
        xs = BlockPrincipalPivoting(kernel="scalar").solve(gram, rhs)
        xb = BlockPrincipalPivoting(kernel="batched").solve(gram, rhs)
        assert xs.tobytes() == xb.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_warm_start(self, seed):
        gram, rhs = _problem(10, 64, seed)
        x0 = np.maximum(np.random.default_rng(seed + 100).standard_normal(rhs.shape), 0)
        xs = BlockPrincipalPivoting(kernel="scalar").solve(gram, rhs, x0=x0)
        xb = BlockPrincipalPivoting(kernel="batched").solve(gram, rhs, x0=x0)
        assert xs.tobytes() == xb.tobytes()

    def test_pivot_counters_match(self):
        gram, rhs = _problem(10, 120, seed=4)
        scalar, batched = (BlockPrincipalPivoting(kernel=k) for k in ("scalar", "batched"))
        scalar.solve(gram, rhs)
        batched.solve(gram, rhs)
        ss, sb = scalar.last_state, batched.last_state
        assert ss.iterations == sb.iterations
        assert ss.full_exchanges == sb.full_exchanges
        assert ss.backup_exchanges == sb.backup_exchanges
        assert ss.converged and sb.converged


class TestFlopAccounting:
    def test_flop_primitives(self):
        assert cholesky_flops(6) == pytest.approx(6**3 / 3.0)
        assert triangular_solve_flops(6, columns=10) == pytest.approx(2 * 36 * 10)

    def test_primitives_reexported_from_local_ops(self):
        from repro.core import local_ops

        assert local_ops.cholesky_flops is cholesky_flops
        assert local_ops.triangular_solve_flops is triangular_solve_flops

    @pytest.mark.parametrize("kernel", ["scalar", "batched"])
    def test_state_carries_tallies(self, kernel):
        gram, rhs = _problem(8, 60, seed=1)
        solver = BlockPrincipalPivoting(kernel=kernel)
        solver.solve(gram, rhs)
        extra = solver.last_state.extra
        assert extra["cholesky_flops"] > 0
        assert extra["triangular_solve_flops"] > 0

    def test_scalar_and_batched_tally_identically(self):
        # Both kernels factorize each unique passive-set pattern exactly once
        # per solve and substitute the same columns, so the tallies agree up
        # to float summation order.
        gram, rhs = _problem(12, 200, seed=2)
        scalar, batched = (BlockPrincipalPivoting(kernel=k) for k in ("scalar", "batched"))
        scalar.solve(gram, rhs)
        batched.solve(gram, rhs)
        for key in ("cholesky_flops", "triangular_solve_flops"):
            assert scalar.last_state.extra[key] == pytest.approx(
                batched.last_state.extra[key], rel=1e-12
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_estimate_is_a_sane_envelope_of_measured(self, seed):
        # Regression pin for the grouped-solve flops estimate: with the
        # *actual* pivot-iteration count plugged in, the estimate must bound
        # the measured (tallied) flops from above — it assumes worst-case
        # passive-set sizes — while staying within two orders of magnitude
        # (the pre-fix estimate, one Cholesky per column per iteration, was
        # ~2/grouping_factor = 4x larger and drifting further with c).
        k, c = 12, 200
        gram, rhs = _problem(k, c, seed)
        solver = BlockPrincipalPivoting(kernel="batched")
        solver.solve(gram, rhs)
        state = solver.last_state
        measured = (
            state.extra["cholesky_flops"] + state.extra["triangular_solve_flops"]
        )
        estimate = bpp_flops_estimate(k, c, iterations=state.iterations)
        assert measured <= estimate
        assert measured >= 0.01 * estimate

    def test_estimate_matches_perf_model(self):
        from repro.perf.model import bpp_flops

        assert bpp_flops(16, 300, iterations=7) == pytest.approx(
            bpp_flops_estimate(16, 300, iterations=7)
        )
        # The documented closed form: iterations * (gf * c * k^3/3 + 2 c k^2).
        assert bpp_flops_estimate(10, 50, iterations=3, grouping_factor=0.4) == (
            pytest.approx(3 * (0.4 * 50 * 1000 / 3.0 + 2.0 * 50 * 100))
        )


@pytest.mark.parametrize("kernel", available_kernels())
class TestAllKernelsDegenerate:
    def test_single_column_single_variable(self, kernel):
        x = BlockPrincipalPivoting(kernel=kernel).solve(
            np.array([[2.0]]), np.array([[4.0]])
        )
        np.testing.assert_allclose(x, [[2.0]])

    def test_all_negative_rhs_gives_zero(self, kernel):
        gram, _ = _problem(5, 1, seed=0)
        rhs = -np.abs(np.random.default_rng(1).standard_normal((5, 3))) - 0.1
        x = BlockPrincipalPivoting(kernel=kernel).solve(gram, rhs)
        np.testing.assert_array_equal(x, np.zeros((5, 3)))

    def test_rank_deficient_gram(self, kernel):
        rng = np.random.default_rng(5)
        C = rng.standard_normal((12, 4))
        C = np.hstack([C, C[:, :1]])  # duplicate column -> singular Gram
        B = rng.standard_normal((12, 6))
        gram, rhs = C.T @ C, C.T @ B
        x = BlockPrincipalPivoting(kernel=kernel).solve(gram, rhs)
        assert np.all(x >= 0)
        assert np.all(np.isfinite(x))
