"""Tests for NMFConfig and NMFResult."""

import dataclasses

import numpy as np
import pytest

from repro.comm.profiler import TimeBreakdown
from repro.core.config import NMFConfig
from repro.core.result import IterationStats, NMFResult
from repro.util.errors import ShapeError


class TestNMFConfig:
    def test_defaults(self):
        cfg = NMFConfig(k=10)
        assert cfg.solver == "bpp"
        assert cfg.max_iters == 30

    def test_algorithm_is_not_a_config_field(self):
        # Which algorithm runs is the variant registry name given to fit(),
        # recorded as NMFResult.variant — the config does not carry it.
        assert len(dataclasses.fields(NMFConfig)) == 10
        with pytest.raises(TypeError, match="algorithm"):
            NMFConfig(k=5, algorithm="naive")

    def test_bpp_kernel_is_not_a_fit_option(self):
        # The kernel is BPP's own argument; a fit always runs the default.
        from repro.core.api import fit

        with pytest.raises(TypeError, match="kernel"):
            NMFConfig(k=5, kernel="scalar")
        with pytest.raises(TypeError, match=r"variant 'sequential' .*\['kernel'\]"):
            fit(np.ones((6, 5)), 2, kernel="scalar")
        assert NMFConfig(k=5).make_solver().kernel.name == "batched"

    def test_invalid_values_rejected(self):
        with pytest.raises(ShapeError):
            NMFConfig(k=0)
        with pytest.raises(ShapeError):
            NMFConfig(k=2, max_iters=0)
        with pytest.raises(ShapeError):
            NMFConfig(k=2, tol=-1.0)

    def test_with_options_returns_modified_copy(self):
        cfg = NMFConfig(k=5)
        cfg2 = cfg.with_options(max_iters=99, solver="mu")
        assert cfg2.max_iters == 99 and cfg2.solver == "mu"
        assert cfg.max_iters == 30  # original unchanged

    def test_an_inner_sweep_count_is_not_a_fit_option(self):
        # HALS and MU sweep once per half-iteration; the count is no field,
        # so fit names it as an option no variant takes.
        from repro.core.api import fit

        with pytest.raises(TypeError, match="inner_iters"):
            NMFConfig(k=5, solver="hals", inner_iters=4)
        with pytest.raises(TypeError, match=r"variant 'sequential' .*\['inner_iters'\]"):
            fit(np.ones((6, 5)), 2, solver="hals", inner_iters=2)
        assert NMFConfig(k=5, solver="hals").make_solver().name == "hals"
        assert NMFConfig(k=5, solver="bpp").make_solver().name == "bpp"


class TestNMFResult:
    def _result(self):
        history = [
            IterationStats(0, objective=10.0, relative_error=0.9, seconds=0.1),
            IterationStats(1, objective=4.0, relative_error=0.5, seconds=0.1),
        ]
        return NMFResult(
            W=np.ones((6, 2)),
            H=np.ones((2, 5)),
            config=NMFConfig(k=2),
            iterations=2,
            history=history,
            breakdown=TimeBreakdown.from_parts(MM=1.0, NLS=0.5),
            n_ranks=4,
            grid_shape=(2, 2),
        )

    def test_final_metrics(self):
        res = self._result()
        assert res.objective == 4.0
        assert res.relative_error == 0.5
        assert res.objective_history == [10.0, 4.0]
        assert res.relative_error_history == [0.9, 0.5]

    def test_reconstruction(self):
        res = self._result()
        np.testing.assert_array_equal(res.reconstruction(), np.full((6, 5), 2.0))

    def test_seconds_per_iteration(self):
        res = self._result()
        assert res.seconds_per_iteration == pytest.approx(1.5 / 2)

    def test_empty_history_gives_nan(self):
        res = NMFResult(
            W=np.zeros((3, 1)), H=np.zeros((1, 3)), config=NMFConfig(k=1), iterations=0
        )
        assert np.isnan(res.objective)
        assert np.isnan(res.relative_error)
        assert res.seconds_per_iteration == 0.0

    def test_summary_mentions_key_facts(self):
        text = self._result().summary()
        assert "k=2" in text
        assert "ranks: 4" in text
        assert "grid 2x2" in text
