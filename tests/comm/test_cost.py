"""Unit tests for the alpha-beta-gamma cost model and the ledger."""

import math

import pytest

from repro.comm.cost import EDISON, AlphaBetaGamma, CollectiveCost, CostLedger


@pytest.fixture
def machine():
    return AlphaBetaGamma(alpha=1e-6, beta=1e-9, gamma=1e-11, name="test")


class TestCollectiveCost:
    def test_costs_are_zero_for_single_process(self, machine):
        coll = CollectiveCost(machine)
        assert coll.all_gather(1, 1000) == 0.0
        assert coll.reduce_scatter(1, 1000) == 0.0
        assert coll.all_reduce(1, 1000) == 0.0

    def test_all_gather_formula(self, machine):
        coll = CollectiveCost(machine)
        p, n = 8, 1_000_000
        expected = machine.alpha * 3 + machine.beta * (7 / 8) * n
        assert coll.all_gather(p, n) == pytest.approx(expected)

    def test_reduce_scatter_adds_gamma_term(self, machine):
        coll = CollectiveCost(machine)
        p, n = 4, 1000
        expected = machine.alpha * 2 + (machine.beta + machine.gamma) * (3 / 4) * n
        assert coll.reduce_scatter(p, n) == pytest.approx(expected)

    def test_all_reduce_is_double_latency(self, machine):
        coll = CollectiveCost(machine)
        p, n = 16, 500
        expected = 2 * machine.alpha * 4 + (2 * machine.beta + machine.gamma) * (15 / 16) * n
        assert coll.all_reduce(p, n) == pytest.approx(expected)

    def test_all_reduce_costlier_than_all_gather(self, machine):
        coll = CollectiveCost(machine)
        assert coll.all_reduce(8, 1000) > coll.all_gather(8, 1000)

    def test_non_power_of_two_uses_log2(self, machine):
        coll = CollectiveCost(machine)
        p = 6
        cost = coll.all_gather(p, 0)
        assert cost == pytest.approx(machine.alpha * math.log2(6))


class TestEdisonPreset:
    def test_flop_rate_is_per_core_peak(self):
        assert 1.0 / EDISON.gamma == pytest.approx(19.2e9)

    def test_latency_microseconds(self):
        assert EDISON.alpha == pytest.approx(1.3e-6)


class TestCostLedger:
    def test_record_books_the_section_2_3_volume_and_messages(self):
        ledger = CostLedger()
        ledger.record("all_gather", p=4, n_words=100)
        ledger.record("all_reduce", p=4, n_words=10)
        ledger.record("reduce_scatter", p=4, n_words=40)
        assert ledger.summary() == {
            "all_gather": {"calls": 1, "words": 75.0, "messages": 2.0, "reduction_flops": 0.0},
            "all_reduce": {"calls": 1, "words": 15.0, "messages": 4.0, "reduction_flops": 7.5},
            "reduce_scatter": {"calls": 1, "words": 30.0, "messages": 2.0,
                               "reduction_flops": 30.0},
        }

    @pytest.mark.parametrize("p", [2, 3, 6])
    def test_messages_are_log2_p_for_any_p(self, p):
        ledger = CostLedger()
        for op in ("all_gather", "reduce_scatter", "all_reduce"):
            ledger.record(op, p, 60)
        summary = ledger.summary()
        assert summary["all_gather"]["messages"] == pytest.approx(math.log2(p))
        assert summary["reduce_scatter"]["messages"] == pytest.approx(math.log2(p))
        assert summary["all_reduce"]["messages"] == pytest.approx(2 * math.log2(p))
        assert summary["all_gather"]["words"] == pytest.approx((p - 1) / p * 60)

    def test_single_process_records_nothing(self):
        ledger = CostLedger()
        ledger.record("all_gather", p=1, n_words=100)
        assert ledger.summary() == {}

    def test_point_to_point_books_its_words_as_one_message(self):
        ledger = CostLedger()
        ledger.record("send", 2, 10)
        ledger.record("send", 8, 6)
        assert ledger.summary() == {
            "send": {"calls": 2, "words": 16.0, "messages": 2.0, "reduction_flops": 0.0},
        }

    def test_calls_accumulate_per_operation(self):
        ledger = CostLedger()
        for _ in range(3):
            ledger.record("all_gather", 4, 100)
        summary = ledger.summary()
        assert summary["all_gather"]["calls"] == 3
        assert summary["all_gather"]["words"] == pytest.approx(225.0)

    def test_summary_is_plain_dict(self):
        ledger = CostLedger()
        ledger.record("all_reduce", 8, 64)
        summary = ledger.summary()
        assert set(summary) == {"all_reduce"}
        assert summary["all_reduce"]["calls"] == 1
