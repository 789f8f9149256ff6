"""The stacked group solve behind the default ``batched`` BPP kernel.

What is pinned here (see docs/ARCHITECTURE.md "Kernels registry"):

* ``batched`` ≡ ``scalar`` *bit for bit* — compared with ``tobytes()``, so
  signed zeros count — in the many-pattern and one-pattern regimes, across
  ``packbits`` byte / 64-bit key boundaries, for zero and ``-0.0`` right-hand
  sides, and through the singular ``lstsq`` fallback;
* a column's solution does not depend on which columns share the call or on
  the workspace chunking, and factors are stored at their compact size;
* one pivot round makes at most ``k`` Cholesky dispatches however many
  patterns it holds, and none through ``scipy.linalg.cho_solve``;
* the pattern cache only ever holds completed factorizations;
* flop tallies and pivot counters equal the pre-rewrite engine's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nls import kernels, make_kernel
from repro.nls.bpp import BlockPrincipalPivoting


def _gram_rhs(k, c, seed):
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((3 * k + 2, k))
    return C.T @ C, C.T @ rng.standard_normal((3 * k + 2, c))


def _group_solve(name, gram, rhs, passive, cols=slice(None), cache=None):
    """One pivot round's solve step, straight into the kernel: ``(x, state, cache)``."""
    kernel = make_kernel(name)
    cache = kernel.make_cache() if cache is None else cache
    state, x = kernel._fresh_state(), np.zeros(rhs.shape)
    kernel._solve_groups(gram, rhs, passive.copy(), x, cols, cache, state)
    return x, state, cache


def _assert_same_round(gram, rhs, passive):
    xs, ss, _ = _group_solve("scalar", gram, rhs, passive)
    xb, sb, _ = _group_solve("batched", gram, rhs, passive)
    assert xs.tobytes() == xb.tobytes()
    assert sb.extra["triangular_solve_flops"] == ss.extra["triangular_solve_flops"]
    assert sb.extra["cholesky_flops"] == pytest.approx(ss.extra["cholesky_flops"], rel=1e-12)


class TestByteParityRegimes:
    def test_every_column_its_own_pattern(self):
        k, c = 10, 600
        gram, rhs = _gram_rhs(k, c, seed=0)
        codes = np.random.default_rng(1).permutation(2**k)[:c]  # all distinct
        passive = ((codes[None, :] >> np.arange(k)[:, None]) & 1).astype(bool)
        assert np.unique(passive, axis=1).shape[1] == c
        _assert_same_round(gram, rhs, passive)

    def test_many_patterns_at_large_k(self):
        # k = 48: where k x k identity-embedded factors lost to the parent engine.
        k, c = 48, 400
        gram, rhs = _gram_rhs(k, c, seed=3)
        passive = np.random.default_rng(4).random((k, c)) < 0.5
        assert np.unique(passive, axis=1).shape[1] == c
        _assert_same_round(gram, rhs, passive)
        _, _, pool = _group_solve("batched", gram, rhs, passive)
        stored = sum(size * size * used for size, used in pool.used.items())
        assert stored == int((passive.sum(axis=0) ** 2).sum())  # compact: s^2 per pattern

    @pytest.mark.parametrize("fill", ["all", "half", "none"])
    def test_one_pattern_covers_the_call(self, fill):
        k, c = 9, 300
        gram, rhs = _gram_rhs(k, c, seed=2)
        column = {"all": np.ones(k, bool), "none": np.zeros(k, bool),
                  "half": np.arange(k) % 2 == 0}[fill]
        _assert_same_round(gram, rhs, np.repeat(column[:, None], c, axis=1))

    @pytest.mark.parametrize("k", [1, 8, 9, 16, 17, 65])
    def test_key_width_boundaries(self, k):
        # 8/9 and 16/17 cross packbits bytes; 65 needs a key wider than 64 bits.
        gram, rhs = _gram_rhs(k, 48, seed=k)
        passive = np.random.default_rng(k + 1).random((k, 48)) < 0.6
        passive[:, 1] = passive[:, 0]
        passive[-1, 1] ^= True  # differs from column 0 in the last bit only
        _assert_same_round(gram, rhs, passive)
        xs = BlockPrincipalPivoting(kernel="scalar").solve(gram, rhs)
        xb = BlockPrincipalPivoting(kernel="batched").solve(gram, rhs)
        assert xs.tobytes() == xb.tobytes()

    @given(st.integers(1, 14), st.integers(1, 40), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_rounds(self, k, c, seed):
        gram, rhs = _gram_rhs(k, c, seed)
        rng = np.random.default_rng(seed + 1)
        passive = rng.random((k, c)) < rng.random()
        _assert_same_round(gram, rhs, passive)

    def test_zero_and_negative_zero_rhs_columns(self):
        k, c = 8, 24
        gram, rhs = _gram_rhs(k, c, seed=4)
        rhs[:, 3] = 0.0
        rhs[:, 5] = -0.0
        rhs[2, 7] = -0.0
        passive = np.random.default_rng(5).random((k, c)) < 0.7
        passive[:, [3, 5]] = True
        _assert_same_round(gram, rhs, passive)
        xs = BlockPrincipalPivoting(kernel="scalar").solve(gram, rhs)
        xb = BlockPrincipalPivoting(kernel="batched").solve(gram, rhs)
        assert xs.tobytes() == xb.tobytes()

    @pytest.mark.parametrize("others", ["same", "mixed"])
    def test_singular_block_falls_back_to_lstsq(self, others, monkeypatch):
        # Rows/columns 0 and 1 coincide exactly: chol hits a zero pivot.
        k, c = 5, 12
        gram = np.diag([4.0, 4.0, 9.0, 1.0, 16.0])
        gram[0, 1] = gram[1, 0] = 4.0
        rhs = np.random.default_rng(6).standard_normal((k, c))
        passive = np.ones((k, c), dtype=bool)
        if others == "mixed":
            passive[0, ::2] = False  # a nonsingular pattern of the same round
            passive[3, ::3] = False  # ... and singular ones of another size
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **kw: calls.append(1) or lstsq(*a, **kw))
        xs, _, _ = _group_solve("scalar", gram, rhs, passive)
        scalar_calls, calls[:] = len(calls), []
        xb, _, pool = _group_solve("batched", gram, rhs, passive)
        assert scalar_calls == len(calls) > 0
        assert any(np.isnan(forms).any() for forms in pool.forms.values())
        assert xs.tobytes() == xb.tobytes()
        assert np.isfinite(xb).all()


class TestColumnIndependence:
    """A column's bits depend on (gram, pattern, rhs column) and nothing else."""

    @pytest.mark.parametrize("cap_bytes", [None, 1, 4096])
    def test_partition_of_a_round(self, cap_bytes, monkeypatch):
        k, c = 11, 90
        gram, rhs = _gram_rhs(k, c, seed=7)
        passive = np.random.default_rng(8).random((k, c)) < 0.5
        whole, _, _ = _group_solve("batched", gram, rhs, passive)
        if cap_bytes is not None:  # force the workspace cap low: many chunks per size class
            monkeypatch.setattr(kernels, "WORKSPACE_BYTES", cap_bytes)
        again, _, _ = _group_solve("batched", gram, rhs, passive)
        assert again.tobytes() == whole.tobytes()
        third = c // 3
        for part in (slice(0, third), slice(third, c), np.arange(c)[::-1][:40]):
            x, _, _ = _group_solve("batched", gram, rhs, passive, cols=part)
            assert x[:, part].tobytes() == whole[:, part].tobytes()
            alone, _, _ = _group_solve("batched", gram, rhs[:, part], passive[:, part])
            assert alone.tobytes() == whole[:, part].tobytes()

    @given(st.integers(2, 12), st.integers(3, 60), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_partition_of_a_solve(self, k, c, seed):
        gram, rhs = _gram_rhs(k, c, seed)
        solver = BlockPrincipalPivoting(kernel="batched")
        whole = solver.solve(gram, rhs)
        parts = [solver.solve(gram, rhs[:, : c // 3]), solver.solve(gram, rhs[:, c // 3 :])]
        assert np.hstack(parts).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("kernel", ["scalar", "batched"])
    def test_warm_start_and_persistent_cache_do_not_change_bits(self, kernel):
        gram, rhs = _gram_rhs(10, 64, seed=9)
        x0 = np.maximum(np.random.default_rng(10).standard_normal(rhs.shape), 0)
        fresh = BlockPrincipalPivoting(kernel=kernel)
        kept = BlockPrincipalPivoting(kernel=kernel, persistent_cache=True)
        for start in (None, x0):
            expected = fresh.solve(gram, rhs, x0=start)
            for _ in range(2):  # the second call runs entirely on cached factors
                assert kept.solve(gram, rhs, x0=start).tobytes() == expected.tobytes()
        assert kept.cached_patterns > 0
        kept.reset_cache()
        assert kept.cached_patterns == 0


class TestDispatchCount:
    def test_one_round_of_2000_patterns_makes_at_most_k_cholesky_calls(self, monkeypatch):
        k, c = 12, 2000
        gram, rhs = _gram_rhs(k, c, seed=11)
        codes = np.random.default_rng(12).permutation(2**k)[:c]
        passive = ((codes[None, :] >> np.arange(k)[:, None]) & 1).astype(bool)
        expected, _, _ = _group_solve("scalar", gram, rhs, passive)
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
        x, _, pool = _group_solve("batched", gram, rhs, passive)
        assert 0 < len(calls) <= k
        assert len(pool) == np.count_nonzero(passive.any(axis=0))  # the empty set needs no factor
        assert x.tobytes() == expected.tobytes()
        # A second round over the same patterns factorizes nothing — nor does
        # a one-pattern call (keyed without the grouping machinery) for any of them.
        calls.clear()
        _group_solve("batched", gram, rhs, passive, cache=pool)
        alone, _, _ = _group_solve("batched", gram, rhs, passive, cols=np.array([7]), cache=pool)
        assert calls == []
        assert alone[:, 7].tobytes() == expected[:, 7].tobytes()

    def test_no_scipy_cho_solve_on_the_path(self, monkeypatch):
        import scipy.linalg

        def forbidden(*args, **kwargs):
            raise AssertionError("cho_solve must not be reached")

        monkeypatch.setattr(scipy.linalg, "cho_solve", forbidden)
        assert not any(
            getattr(value, "__name__", "").startswith("scipy") for value in vars(kernels).values()
        )
        gram, rhs = _gram_rhs(8, 50, seed=13)
        for kernel in ("scalar", "batched"):
            BlockPrincipalPivoting(kernel=kernel).solve(gram, rhs)


class TestCacheHoldsOnlyCompletedFactors:
    @pytest.mark.parametrize("kernel", ["scalar", "batched"])
    def test_exception_while_factorizing_leaves_cache_unchanged(self, kernel, monkeypatch):
        gram, rhs = _gram_rhs(8, 40, seed=14)
        other = _gram_rhs(8, 40, seed=15)[1]
        solver = BlockPrincipalPivoting(kernel=kernel, persistent_cache=True)
        solver.solve(gram, rhs)
        cache = solver._cache
        keys = set(cache if kernel == "scalar" else cache.slots)
        assert keys

        def interrupted(a):
            raise RuntimeError("not a LinAlgError: e.g. an interrupt in the executor thread")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "cholesky", interrupted)
            with pytest.raises(RuntimeError):
                solver.solve(gram, other)  # needs patterns the cache has not seen
        assert solver._cache is cache
        assert set(cache if kernel == "scalar" else cache.slots) == keys
        # ... and the patterns it could not finish are factorized, not lstsq'd, later.
        expected = BlockPrincipalPivoting(kernel=kernel).solve(gram, other)
        assert solver.solve(gram, other).tobytes() == expected.tobytes()
        assert solver.cached_patterns > len(keys)


    def test_interrupt_in_the_singular_fallback_marks_nothing_singular(self, monkeypatch):
        # The stacked call fails, the per-pattern loop finds one singular block
        # and is then interrupted: the next round must not inherit that mark.
        gram, rhs = _gram_rhs(6, 9, seed=16)
        passive = np.ones((6, 9), dtype=bool)
        passive[np.arange(3), np.arange(3)] = False  # three size-5 patterns + the full one
        cholesky, seen = np.linalg.cholesky, []

        def flaky(a):
            seen.append(a.ndim)
            if a.ndim == 3 or seen.count(2) == 1:
                raise np.linalg.LinAlgError("singular")
            if seen.count(2) == 2:
                raise RuntimeError("interrupted")
            return cholesky(a)

        kernel = make_kernel("batched")
        pool, x = kernel.make_cache(), np.zeros(rhs.shape)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "cholesky", flaky)
            with pytest.raises(RuntimeError):
                kernel._solve_groups(gram, rhs, passive, x, slice(None), pool, kernel._fresh_state())
        assert seen.count(2) == 2 and len(pool) == 0 and not pool.used
        monkeypatch.setattr(np.linalg, "lstsq", None)  # nothing may be routed there now
        again, _, _ = _group_solve("batched", gram, rhs, passive, cache=pool)
        expected, _, _ = _group_solve("scalar", gram, rhs, passive)
        assert again.tobytes() == expected.tobytes()


class TestTalliesMatchThePreRewriteEngine:
    """Pinned on the parent commit: the rewrite moved no counter."""

    @pytest.mark.parametrize("kernel", ["scalar", "batched"])
    def test_pinned_problem(self, kernel):
        rng = np.random.default_rng(2)
        C = rng.standard_normal((36, 12))
        gram, rhs = C.T @ C, C.T @ rng.standard_normal((36, 200))
        solver = BlockPrincipalPivoting(kernel=kernel)
        solver.solve(gram, rhs)
        state = solver.last_state
        assert (state.iterations, state.full_exchanges, state.backup_exchanges) == (5, 431, 0)
        assert state.extra["triangular_solve_flops"] == 37426.0
        assert state.extra["cholesky_flops"] == pytest.approx(41384.33333333334, rel=1e-13)
