"""Panel-streamed reduce-scatter: byte-identity and ledger purity.

The contract under test (see repro/comm/panels.py): streaming a
reduce-scatter as one blocking per-panel collective per rank produces a
result byte-identical to the monolithic blocking call on every backend, and
books exactly the same single ledger entry — same calls, words, messages and
reduction flops — no matter how many physical panels carried it.
"""

import numpy as np
import pytest

from repro.comm import run_spmd
from repro.comm.communicator import SelfComm
from repro.comm.cost import CostLedger
from repro.comm.panels import panel_slices, stream_reduce_scatter
from repro.comm.profiler import Profiler, TaskCategory

BACKENDS = ("lockstep", "thread", "process")

# 3-4 forked ranks oversubscribe small hosts on purpose: parity, not speed (the
# warning has its own test in tests/comm/test_forked_backends.py).
pytestmark = pytest.mark.filterwarnings("ignore:.*oversubscribe.*:RuntimeWarning")


def test_panel_slices_partition_the_axis():
    counts = [3, 0, 4, 2]
    slices = panel_slices(counts)
    assert slices == [slice(0, 3), slice(3, 3), slice(3, 7), slice(7, 9)]
    x = np.arange(9)
    np.testing.assert_array_equal(np.concatenate([x[s] for s in slices]), x)


def _stream_program(comm, counts, axis):
    """Blocking vs streamed reduce-scatter of the same input; compare all."""
    rng = np.random.default_rng(510 + comm.rank)
    total = sum(counts)
    shape = (total, 3) if axis == 0 else (3, total)
    full = rng.standard_normal(shape)
    slices = panel_slices(counts)
    my_shape = (counts[comm.rank], 3) if axis == 0 else (3, counts[comm.rank])
    out = np.empty(my_shape)

    blocking_ledger = CostLedger()
    comm.attach_ledger(blocking_ledger)
    blocking = comm.reduce_scatter(full, counts=counts, axis=axis)

    streamed_ledger = CostLedger()
    comm.attach_ledger(streamed_ledger)
    profiler = Profiler()

    def compute_panel(t):
        return full[slices[t]] if axis == 0 else full[:, slices[t]]

    streamed = stream_reduce_scatter(
        comm, compute_panel, counts, axis=axis, out=out, profiler=profiler
    )
    return {
        "identical": np.array_equal(blocking, streamed)
        and blocking.dtype == streamed.dtype,
        "uses_out": streamed is out,
        "ledgers_equal": blocking_ledger.summary() == streamed_ledger.summary(),
        "ledger_calls": streamed_ledger.summary()["reduce_scatter"]["calls"],
        "mm_calls": profiler.calls(TaskCategory.MM),
        "rs_calls": profiler.calls(TaskCategory.REDUCE_SCATTER),
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("counts", [[2, 2, 2, 2], [3, 1, 4, 2]])
def test_streamed_matches_monolithic(backend, axis, counts):
    p = len(counts)
    for report in run_spmd(p, _stream_program, counts, axis, backend=backend):
        assert report["identical"]
        assert report["uses_out"]
        assert report["ledgers_equal"]
        # One modeled collective, regardless of the p physical panels.
        assert report["ledger_calls"] == 1
        # Every panel's GEMM and wait is booked.
        assert report["mm_calls"] == p
        assert report["rs_calls"] == p


@pytest.mark.parametrize("axis", [0, 1])
def test_streamed_handles_zero_count_panels(axis):
    # A rank with nothing to receive still runs the same collective schedule.
    counts = [0, 5, 2, 3]
    for report in run_spmd(4, _stream_program, counts, axis, backend="lockstep"):
        assert report["identical"]
        assert report["ledgers_equal"]
        assert report["ledger_calls"] == 1


def test_streamed_size_one_is_silent():
    # The blocking size-1 fast path records nothing; the stream must match.
    comm = SelfComm()
    ledger = CostLedger()
    comm.attach_ledger(ledger)
    full = np.arange(12.0).reshape(6, 2)
    out = np.empty((6, 2))
    result = stream_reduce_scatter(
        comm, lambda t: full, [6], axis=0, out=out
    )
    np.testing.assert_array_equal(result, full)
    assert ledger.summary() == {}


def test_counts_must_match_communicator_size():
    comm = SelfComm()
    with pytest.raises(ValueError, match="one panel per rank"):
        stream_reduce_scatter(
            comm, lambda t: np.zeros((3, 2)), [3, 2], axis=0, out=None
        )


def test_panel_extent_is_validated():
    comm = SelfComm()
    with pytest.raises(ValueError, match="expected counts"):
        stream_reduce_scatter(
            comm, lambda t: np.zeros((4, 2)), [6], axis=0, out=None
        )
