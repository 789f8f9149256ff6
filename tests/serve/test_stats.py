"""Serving telemetry: nearest-rank percentiles, ring window, snapshot shape."""

import math

import pytest

from repro.serve import LatencyWindow, ServeStats, percentile


class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50.0))

    def test_single_value(self):
        assert percentile([7.0], 50.0) == 7.0
        assert percentile([7.0], 99.0) == 7.0

    def test_nearest_rank_definition(self):
        values = [float(v) for v in range(1, 11)]  # 1..10
        assert percentile(values, 50.0) == 5.0     # ceil(10*0.5) = rank 5
        assert percentile(values, 90.0) == 9.0
        assert percentile(values, 99.0) == 10.0
        assert percentile(values, 0.0) == 1.0      # clamped to rank 1
        assert percentile(values, 100.0) == 10.0

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError):
            percentile([1.0], -1.0)


class TestLatencyWindow:
    def test_quantiles_of_recent_observations(self):
        window = LatencyWindow()
        for v in range(1, 101):
            window.record(v / 1000.0)
        q = window.quantiles()
        assert set(q) == {"p50", "p99"}
        assert q["p50"] == 0.050
        assert q["p99"] == 0.099

    def test_ring_drops_oldest(self):
        window = LatencyWindow(maxlen=4)
        for v in (100.0, 1.0, 2.0, 3.0, 4.0):
            window.record(v)
        assert len(window) == 4
        assert window.quantiles() == {"p50": 2.0, "p99": 4.0}  # 100.0 evicted


class TestServeStats:
    def test_snapshot_shape(self):
        stats = ServeStats()
        snapshot = stats.snapshot()
        for key in ("requests_total", "responses_total", "columns_total",
                    "batches_total", "shed_total", "deadline_total",
                    "validation_errors", "model_errors", "queue_depth",
                    "batch_columns_histogram", "latency_seconds",
                    "queue_wait_seconds", "solve_seconds"):
            assert key in snapshot
        assert math.isnan(snapshot["mean_batch_columns"])
        for clock in ("latency_seconds", "queue_wait_seconds", "solve_seconds"):
            assert set(snapshot[clock]) == {"p50", "p99"}

    def test_batch_recording(self):
        stats = ServeStats()
        stats.record_admitted()
        stats.record_admitted()
        stats.record_batch(n_requests=2, n_columns=8, solve_seconds=0.001)
        stats.record_batch(n_requests=1, n_columns=8, solve_seconds=0.003)
        assert stats.requests_total == 2
        assert stats.responses_total == 3
        assert stats.columns_total == 16
        assert stats.mean_batch_columns == 8.0
        assert stats.snapshot()["batch_columns_histogram"] == {"8": 2}

    def test_stage_clock_quantiles_in_snapshot(self):
        stats = ServeStats()
        for wait in (0.0001, 0.0002, 0.0003):
            stats.record_queue_wait(wait)
        stats.record_batch(n_requests=3, n_columns=3, solve_seconds=0.002)
        snapshot = stats.snapshot()
        assert snapshot["queue_wait_seconds"] == {"p50": 0.0002, "p99": 0.0003}
        assert snapshot["solve_seconds"] == {"p50": 0.002, "p99": 0.002}

    def test_latency_quantiles_in_snapshot(self):
        stats = ServeStats()
        for v in (0.010, 0.020, 0.030):
            stats.record_latency(v)
        latency = stats.snapshot()["latency_seconds"]
        assert latency["p50"] == 0.020
        assert latency["p99"] == 0.030

    def test_snapshot_is_json_safe(self):
        import json

        stats = ServeStats()
        stats.record_batch(1, 4, 0.001)
        stats.record_latency(0.01)
        parsed = json.loads(json.dumps(stats.snapshot()))
        assert parsed["batches_total"] == 1


class TestMerge:
    def test_counters_and_histograms_sum_and_quantiles_span_every_window(self):
        a, b = ServeStats(latency_window=4), ServeStats(latency_window=4)
        for stats, n_columns, solve in ((a, 2, 0.001), (a, 2, 0.002), (b, 5, 0.004)):
            stats.record_admitted()
            stats.record_batch(n_requests=1, n_columns=n_columns, solve_seconds=solve)
        for v in (1.0, 2.0, 3.0, 4.0):
            a.record_latency(v)
        for v in (5.0, 6.0, 7.0, 8.0):
            b.record_latency(v)
        b.shed_total, b.queue_depth = 3, 2
        merged = ServeStats.merge([a, b]).snapshot()
        assert merged["requests_total"] == merged["responses_total"] == 3
        assert merged["columns_total"] == 9 and merged["batches_total"] == 3
        assert merged["shed_total"] == 3 and merged["queue_depth"] == 2
        assert merged["batch_columns_histogram"] == {"2": 2, "5": 1}
        assert merged["mean_batch_columns"] == 3.0
        assert merged["latency_seconds"] == {"p50": 4.0, "p99": 8.0}  # over all 8
        assert merged["solve_seconds"] == {"p50": 0.002, "p99": 0.004}
        assert a.snapshot()["requests_total"] == 2  # the parts are untouched

    def test_merging_one_is_a_copy_of_its_snapshot(self):
        stats = ServeStats()
        stats.record_admitted()
        stats.record_batch(n_requests=1, n_columns=4, solve_seconds=0.5)
        stats.record_latency(0.25)
        stats.record_queue_wait(0.125)
        assert ServeStats.merge([stats]).snapshot() == stats.snapshot()
