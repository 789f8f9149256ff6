"""Tests for the per-iteration observer protocol (repro.core.observers)."""

import numpy as np
import pytest

from repro.core.api import fit
from repro.core.config import NMFConfig
from repro.core.observers import (
    CheckpointEvery,
    HistoryRecorder,
    IterationEvent,
    IterationObserver,
)
from repro.data.lowrank import planted_lowrank


def _matrix():
    return planted_lowrank(24, 18, 2, seed=0, noise_std=0.02)


class Recorder(IterationObserver):
    """Counts every protocol call; optionally requests a stop."""

    def __init__(self, stop_after=None):
        self.started = 0
        self.finished_results = []
        self.events = []
        self.stop_after = stop_after

    def on_start(self, config, variant):
        self.started += 1
        self.config = config
        self.variant = variant

    def on_iteration(self, event):
        self.events.append(event)
        return self.stop_after is not None and event.iteration >= self.stop_after

    def on_finish(self, result):
        self.finished_results.append(result)


class StallStop(IterationObserver):
    """Stops once the relative error improves by less than ``tol``; resets per run."""

    def __init__(self, tol):
        self.tol = tol

    def on_start(self, config, variant):
        self.previous, self.stopped_at = float("inf"), None

    def on_iteration(self, event):
        stop = self.previous - event.relative_error < self.tol
        self.previous = event.relative_error
        if stop:
            self.stopped_at = event.iteration
        return stop


class TestSequentialDispatch:
    def test_observer_sees_every_iteration(self):
        rec = Recorder()
        res = fit(_matrix(), 2, max_iters=5, seed=1, observers=[rec])
        assert rec.started == 1
        assert len(rec.events) == 5
        assert [e.iteration for e in rec.events] == [0, 1, 2, 3, 4]
        assert rec.variant == "sequential"
        assert len(rec.finished_results) == 1
        assert rec.finished_results[0] is res

    def test_event_carries_metrics_and_factors(self):
        rec = Recorder()
        fit(_matrix(), 2, max_iters=3, seed=1, observers=[rec])
        event = rec.events[-1]
        assert event.k == 2
        assert event.n_ranks == 1
        assert event.has_error
        assert event.has_factors
        assert event.W.shape == (24, 2) and event.H.shape == (2, 18)
        assert event.seconds >= 0

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    @pytest.mark.parametrize("variant", ["sequential", "regularized"])
    @pytest.mark.parametrize("solver", ["hals", "bpp"])
    def test_event_factors_are_live_so_observers_copy_them(self, solver, variant, kind):
        """The loops solve in place and hand observers their live iterates:
        an observer that copies them gets a distinct array per iteration, and
        its last copy is the result."""
        import scipy.sparse as sp

        class Copier(IterationObserver):
            def __init__(self):
                self.copies, self.live = [], []

            def on_iteration(self, event):
                self.copies.append((event.W.copy(), event.H.copy()))
                self.live.append((event.W, event.H))

        A = _matrix() if kind == "dense" else sp.csr_matrix(_matrix())
        copier = Copier()
        res = fit(A, 2, variant=variant, solver=solver, max_iters=4, seed=1, observers=[copier])
        (W0, H0), (W1, H1) = copier.copies[:2]
        assert not np.shares_memory(W0, W1) and not np.shares_memory(H0, H1)
        assert not np.array_equal(H0, H1)
        assert all(np.shares_memory(W, copier.live[0][0]) for W, _ in copier.live)
        assert all(H is copier.live[0][1] for _, H in copier.live)
        assert copier.copies[-1][0].tobytes() == res.W.tobytes()
        assert copier.copies[-1][1].tobytes() == res.H.tobytes()

    def test_stop_request_honoured(self):
        rec = Recorder(stop_after=2)
        res = fit(_matrix(), 2, max_iters=50, seed=1, observers=[rec])
        assert res.iterations == 3
        assert len(rec.events) == 3

    def test_events_fire_without_error_computation(self):
        rec = Recorder()
        res = fit(_matrix(), 2, max_iters=4, compute_error=False, observers=[rec])
        assert len(rec.events) == 4
        assert not rec.events[0].has_error
        assert res.history == []

    def test_observers_do_not_change_factors(self):
        A = _matrix()
        plain = fit(A, 2, max_iters=4, seed=7)
        watched = fit(A, 2, max_iters=4, seed=7, observers=[Recorder()])
        assert plain.W.tobytes() == watched.W.tobytes()
        assert plain.H.tobytes() == watched.H.tobytes()

    @pytest.mark.parametrize("variant", ["regularized", "symmetric", "streaming"])
    def test_extension_variants_dispatch_observers(self, variant):
        rec = Recorder()
        res = fit(_matrix(), 2, variant=variant, max_iters=4, seed=1, observers=[rec])
        assert rec.variant == variant
        assert len(rec.events) == res.iterations
        assert rec.finished_results[0] is res

    def test_streaming_fires_one_event_per_frame(self):
        rec = Recorder()
        res = fit(_matrix(), 2, variant="streaming", window=6, observers=[rec])
        assert res.iterations == 18  # one per column
        assert len(rec.events) == 18


class TestSPMDDispatch:
    @pytest.mark.parametrize("backend", ["thread", "lockstep"])
    def test_rank0_only_one_event_per_iteration(self, backend):
        rec = Recorder()
        res = fit(_matrix(), 2, variant="hpc2d", n_ranks=4, backend=backend,
                  max_iters=4, seed=2, observers=[rec])
        assert rec.started == 1
        assert len(rec.events) == 4          # not 4 ranks x 4 iterations
        assert rec.events[0].n_ranks == 4
        assert not rec.events[0].has_factors  # blocks live on the ranks
        assert rec.finished_results[0] is res

    @pytest.mark.parametrize("variant", ["naive", "hpc2d"])
    @pytest.mark.parametrize("backend", ["thread", "lockstep"])
    def test_observer_stop_reaches_all_ranks(self, variant, backend):
        rec = Recorder(stop_after=1)
        res = fit(_matrix(), 2, variant=variant, n_ranks=4, backend=backend,
                  max_iters=50, seed=2, observers=[rec])
        assert res.iterations == 2
        assert len(rec.events) == 2

    def test_observed_spmd_factors_match_unobserved(self):
        A = _matrix()
        plain = fit(A, 2, variant="hpc2d", n_ranks=4, max_iters=3, seed=4)
        watched = fit(A, 2, variant="hpc2d", n_ranks=4, max_iters=3, seed=4,
                      observers=[Recorder()])
        assert plain.W.tobytes() == watched.W.tobytes()
        assert plain.H.tobytes() == watched.H.tobytes()

    def test_observed_runs_identical_across_backends(self):
        A = _matrix()
        results = {}
        for backend in ("thread", "lockstep"):
            rec = Recorder(stop_after=2)
            results[backend] = fit(A, 2, variant="hpc2d", n_ranks=4, backend=backend,
                                   max_iters=20, seed=4, observers=[rec])
        assert results["thread"].W.tobytes() == results["lockstep"].W.tobytes()
        assert results["thread"].iterations == results["lockstep"].iterations == 3


class TestBuiltinObservers:
    def test_history_recorder_matches_result_history(self):
        rec = HistoryRecorder()
        res = fit(_matrix(), 2, max_iters=5, seed=1, observers=[rec])
        assert rec.relative_errors == res.relative_error_history
        assert [s.iteration for s in rec.history] == [0, 1, 2, 3, 4]

    def test_checkpoint_every_writes_factors(self, tmp_path):
        ckpt = CheckpointEvery(2, tmp_path / "ck_{iteration}.npz")
        fit(_matrix(), 2, max_iters=5, seed=1, observers=[ckpt])
        assert len(ckpt.paths) == 2  # after iterations 1 and 3
        with np.load(ckpt.paths[-1]) as data:
            assert data["W"].shape == (24, 2)
            assert int(data["iteration"]) == 3

    def test_checkpoint_without_factors_keeps_metrics_only(self, tmp_path):
        ckpt = CheckpointEvery(1, tmp_path / "spmd_{iteration}.npz")
        fit(_matrix(), 2, variant="hpc2d", n_ranks=4, max_iters=2, seed=1,
            observers=[ckpt])
        with np.load(ckpt.paths[0]) as data:
            assert "W" not in data.files
            assert np.isfinite(float(data["relative_error"]))

    def test_stateful_observers_reset_between_runs(self):
        # The NMF estimator passes the same observer objects to every fit;
        # a second run must not inherit the first run's state.
        from repro.core.api import NMF

        A = _matrix()
        B = planted_lowrank(24, 18, 2, seed=9, noise_std=0.02)
        stopper = StallStop(tol=1e-4)
        rec = HistoryRecorder()
        model = NMF(k=2, max_iters=30, seed=1, observers=[stopper, rec])
        first_iters = model.fit(A).result_.iterations
        second = model.fit(B).result_
        fresh = NMF(k=2, max_iters=30, seed=1,
                    observers=[StallStop(tol=1e-4)]).fit(B).result_
        assert second.iterations == fresh.iterations
        assert second.iterations > 1  # not a spurious iteration-0 stop
        assert len(rec.history) == second.iterations  # not first + second
        assert first_iters >= 1

    def test_composing_multiple_observers(self):
        rec = HistoryRecorder()
        stopper = StallStop(tol=1e-3)
        res = fit(_matrix(), 2, max_iters=200, seed=1, observers=[rec, stopper])
        assert res.iterations < 200
        assert stopper.stopped_at == res.iterations - 1
        assert len(rec.history) == res.iterations


class TestEventDefaults:
    def test_nan_event_reports_no_error(self):
        event = IterationEvent(iteration=0, variant="sequential")
        assert not event.has_error
        assert not event.has_factors

    def test_base_observer_is_a_no_op(self):
        obs = IterationObserver()
        obs.on_start(NMFConfig(k=2), "sequential")
        assert obs.on_iteration(IterationEvent(iteration=0, variant="x")) is None
        obs.on_finish(None)
