"""Unit tests for the per-task profiler and TimeBreakdown containers."""

import pytest

from repro.comm.profiler import (
    Profiler,
    TaskCategory,
    TimeBreakdown,
    max_over_ranks,
)
from repro.util.timing import WallClock


class FakeClock(WallClock):
    def __init__(self):
        self.value = 0.0

    def now(self):
        return self.value


def test_profiler_accumulates_per_category():
    clock = FakeClock()
    profiler = Profiler(clock=clock)
    with profiler.task(TaskCategory.MM):
        clock.value += 2.0
    with profiler.task(TaskCategory.MM):
        clock.value += 1.0
    with profiler.task(TaskCategory.NLS):
        clock.value += 0.5
    assert profiler.seconds(TaskCategory.MM) == pytest.approx(3.0)
    assert profiler.seconds(TaskCategory.NLS) == pytest.approx(0.5)
    assert profiler.calls(TaskCategory.MM) == 2


def test_profiler_add():
    profiler = Profiler()
    profiler.add(TaskCategory.ALL_REDUCE, 1.25)
    profiler.add(TaskCategory.ALL_REDUCE, 0.25)
    assert profiler.snapshot().get(TaskCategory.ALL_REDUCE) == pytest.approx(1.5)
    assert profiler.calls(TaskCategory.ALL_REDUCE) == 2


def test_breakdown_computation_vs_communication():
    b = TimeBreakdown.from_parts(MM=1.0, NLS=2.0, Gram=0.5, AllGather=0.25, AllReduce=0.25)
    assert b.computation == pytest.approx(3.5)
    assert b.communication == pytest.approx(0.5)
    assert b.total == pytest.approx(4.0)


def test_breakdown_addition_and_scaling():
    a = TimeBreakdown.from_parts(MM=1.0)
    b = TimeBreakdown.from_parts(MM=2.0, NLS=1.0)
    combined = a + b
    assert combined.get(TaskCategory.MM) == pytest.approx(3.0)
    assert combined.get(TaskCategory.NLS) == pytest.approx(1.0)
    halved = combined.scaled(0.5)
    assert halved.get(TaskCategory.MM) == pytest.approx(1.5)


def test_breakdown_unknown_category_rejected():
    with pytest.raises(KeyError):
        TimeBreakdown.from_parts(Bogus=1.0)


def test_breakdown_zeros_covers_figure_categories():
    zeros = TimeBreakdown.zeros()
    for cat in TaskCategory.figure_order():
        assert zeros.get(cat) == 0.0
    assert zeros.total == 0.0


def test_max_over_ranks():
    b0 = TimeBreakdown.from_parts(MM=1.0, NLS=4.0)
    b1 = TimeBreakdown.from_parts(MM=3.0, NLS=2.0)
    critical = max_over_ranks([b0, b1])
    assert critical.get(TaskCategory.MM) == pytest.approx(3.0)
    assert critical.get(TaskCategory.NLS) == pytest.approx(4.0)
    assert max_over_ranks([]).total == 0.0
